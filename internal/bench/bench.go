// Package bench holds the repo's hot-path benchmark bodies in importable
// form, so the same measurements run two ways: as ordinary `go test -bench`
// benchmarks (BenchmarkHotpath and BenchmarkScale loop over All and Scale)
// and through cmd/ltee-bench, which executes them with testing.Benchmark
// and emits machine-readable BENCH_hotpath.json — the perf trajectory
// every later change is held to.
//
// Fixtures are built lazily and shared across benchmarks: world generation,
// corpus synthesis, and engine warm-up are paid once per process, outside
// the timed regions. All fixtures are deterministic (fixed seeds).
package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/serve"
	"repro/internal/webtable"
	"repro/internal/world"
)

// Named pairs a benchmark body with the name it is tracked under in
// BENCH_hotpath.json.
type Named struct {
	Name string
	Fn   func(b *testing.B)
}

// All returns every tracked benchmark in a fixed order: similarity micro
// kernels first, then the pipeline-level paths (clustering, ingest, serve).
func All() []Named {
	return []Named{
		{Name: "Levenshtein", Fn: Levenshtein},
		{Name: "LevenshteinSim", Fn: LevenshteinSim},
		{Name: "MongeElkanSym", Fn: MongeElkanSym},
		{Name: "TermVector", Fn: TermVector},
		{Name: "ClusterGreedy", Fn: ClusterGreedy},
		{Name: "IngestBatch", Fn: IngestBatch},
		{Name: "ServeSearch/cold", Fn: ServeSearchCold},
		{Name: "ServeSearch/warm", Fn: ServeSearchWarm},
	}
}

// ---------------------------------------------------------------------------
// Shared fixtures.

// pipeFix is the clustering/world fixture: a small deterministic world and
// corpus plus prepared rows and an unlearned (uniform-weight) scorer, so
// the benchmark measures the clustering kernels rather than model training.
type pipeFix struct {
	w      *world.World
	corpus *webtable.Corpus
	tables []int
	rows   []*cluster.Row
	scorer *cluster.Scorer
}

var (
	pipeOnce sync.Once
	pipeErr  error
	pipe     *pipeFix
)

func pipeFixture(b *testing.B) *pipeFix {
	b.Helper()
	pipeOnce.Do(func() {
		w := world.Generate(world.DefaultConfig(0.2))
		c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
		byClass, err := core.ClassifyTables(context.Background(), w.KB, c, 0.3, 0)
		if err != nil {
			pipeErr = fmt.Errorf("classify tables: %w", err)
			return
		}
		tables := byClass[kb.ClassGFPlayer]
		builder := &cluster.Builder{KB: w.KB, Corpus: c, Class: kb.ClassGFPlayer}
		rows := builder.Build(tables)
		n := len(cluster.MetricSet())
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = 1 / float64(n)
		}
		pipe = &pipeFix{
			w: w, corpus: c, tables: tables, rows: rows,
			scorer: &cluster.Scorer{
				Metrics: cluster.MetricSet(),
				Agg:     &agg.WeightedAverage{Weights: weights, Threshold: 0.5},
			},
		}
	})
	if pipeErr != nil {
		b.Fatalf("cluster fixture: %v", pipeErr)
	}
	if len(pipe.rows) == 0 {
		b.Fatal("cluster fixture: no rows")
	}
	return pipe
}

// ClusterGreedy measures the parallelized greedy correlation clustering
// (blocking on, KLj off) over the prepared rows of the GF-Player class —
// the per-pair scoring hot path of every clustering run.
func ClusterGreedy(b *testing.B) {
	f := pipeFixture(b)
	opts := cluster.Options{Blocking: true, KLj: false, BatchSize: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := cluster.ClusterCtx(b.Context(), f.rows, f.scorer, opts)
		if out.NumClusters() == 0 {
			b.Fatal("no clusters")
		}
	}
}

// ingestFix holds an engine that has already ingested the first half of
// the class's tables; the benchmark forks it and ingests the second half.
type ingestFix struct {
	base   *core.Engine
	second []int
}

var (
	ingestOnce sync.Once
	ingestErr  error
	ingest     *ingestFix
)

func ingestFixture(b *testing.B) *ingestFix {
	b.Helper()
	// The shared fixture is fetched outside the Once: its b.Fatal must not
	// leave this Once done with no fixture.
	f := pipeFixture(b)
	ingestOnce.Do(func() {
		if len(f.tables) < 2 {
			ingestErr = fmt.Errorf("ingest fixture: only %d tables", len(f.tables))
			return
		}
		cfg := core.DefaultConfig(f.w.KB, f.corpus, kb.ClassGFPlayer)
		cfg.Iterations = 1
		eng := core.NewEngine(cfg, core.Models{})
		eng.WriteBack = false // keep the shared fixture KB pristine
		half := len(f.tables) / 2
		if _, _, err := eng.Ingest(context.Background(), f.tables[:half]); err != nil {
			ingestErr = fmt.Errorf("warm ingest: %w", err)
			return
		}
		ingest = &ingestFix{base: eng, second: f.tables[half:]}
	})
	if ingestErr != nil {
		b.Fatalf("ingest fixture: %v", ingestErr)
	}
	return ingest
}

// IngestBatch measures ingesting the second half of the corpus into an
// engine retaining the first half's state (forked per iteration).
func IngestBatch(b *testing.B) {
	f := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := f.base.Fork()
		out, _, err := eng.Ingest(b.Context(), f.second)
		if err != nil {
			b.Fatalf("ingest: %v", err)
		}
		if len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// serveFix is the serving fixture: one grown KB behind two servers that
// differ only in response caching, plus a fuzzy query (one misspelled
// token) that exercises the index's fuzzy fallback on every cache miss.
type serveFix struct {
	cached   *serve.Server
	uncached *serve.Server
	query    string
}

var (
	serveOnce sync.Once
	serveErr  error
	serveF    *serveFix
)

func serveFixture(b *testing.B) *serveFix {
	b.Helper()
	f := pipeFixture(b)
	serveOnce.Do(func() {
		cfg := core.DefaultConfig(f.w.KB, f.corpus, kb.ClassGFPlayer)
		cfg.Iterations = 1
		cached, err := serve.New(serve.Config{
			KB: f.w.KB, Corpus: f.corpus,
			Engines: map[kb.ClassID]*core.Engine{kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{})},
		})
		if err != nil {
			serveErr = err
			return
		}
		uncached, err := serve.New(serve.Config{
			KB: f.w.KB, Corpus: f.corpus,
			Engines:      map[kb.ClassID]*core.Engine{kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{})},
			CacheEntries: -1,
		})
		if err != nil {
			serveErr = err
			return
		}
		serveF = &serveFix{
			cached:   cached,
			uncached: uncached,
			query:    "/v1/search?class=GF-Player&q=" + url.QueryEscape(fuzzQuery(f.w)),
		}
	})
	if serveErr != nil {
		b.Fatalf("serve fixture: %v", serveErr)
	}
	return serveF
}

// fuzzQuery derives a query from the first instance label carrying a
// ≥5-letter token, with that token misspelled (one middle letter dropped,
// so it stays ≥4 letters and has no exact posting) — search then takes the
// per-token fuzzy fallback on every cache miss, the path this PR rebuilds.
func fuzzQuery(w *world.World) string {
	for id := 0; id < w.KB.NumInstances(); id++ {
		label := w.KB.InstanceLabel(kb.InstanceID(id))
		toks := strings.Fields(label)
		for i, t := range toks {
			if len(t) >= 5 {
				toks[i] = t[:len(t)/2] + t[len(t)/2+1:]
				return strings.Join(toks, " ")
			}
		}
	}
	return "unmatchable"
}

func serveGet(b *testing.B, s *serve.Server, target string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d", target, rec.Code)
		}
	}
}

// ServeSearchCold measures fuzzy label search with the response cache
// disabled: every request walks the posting index.
func ServeSearchCold(b *testing.B) {
	f := serveFixture(b)
	serveGet(b, f.uncached, f.query)
}

// ServeSearchWarm measures the same query through the LRU response cache.
func ServeSearchWarm(b *testing.B) {
	f := serveFixture(b)
	serveGet(b, f.cached, f.query)
}
