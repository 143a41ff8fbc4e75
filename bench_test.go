package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/webtable"
	"repro/internal/world"
)

// benchSuite is shared across benchmarks so world generation and model
// training are paid once; each benchmark then measures regenerating its
// table (including the experiment runs the table needs, via the suite's
// caches for setup shared with other tables).
var (
	benchOnce sync.Once
	benchS    *report.Suite
)

func suite() *report.Suite {
	benchOnce.Do(func() {
		benchS = report.NewSuite(report.Options{WorldScale: 0.15, CorpusScale: 0.08, Seed: 1})
	})
	return benchS
}

// BenchmarkTable01 regenerates Table 1 (instances and facts per class).
func BenchmarkTable01(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table1(context.Background())
		if err != nil || len(got.Rows) != 3 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTable02 regenerates Table 2 (property densities).
func BenchmarkTable02(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table2(context.Background())
		if err != nil || len(got.Rows) == 0 {
			b.Fatal("bad table 2")
		}
	}
}

// BenchmarkTable03 regenerates Table 3 (corpus characteristics).
func BenchmarkTable03(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table3(context.Background())
		if err != nil || len(got.Rows) != 2 {
			b.Fatal("bad table 3")
		}
	}
}

// BenchmarkTable04 regenerates Table 4 (tables and value correspondences).
func BenchmarkTable04(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table4(context.Background())
		if err != nil || len(got.Rows) != 3 {
			b.Fatal("bad table 4")
		}
	}
}

// BenchmarkTable05 regenerates Table 5 (gold standard overview).
func BenchmarkTable05(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table5(context.Background())
		if err != nil || len(got.Rows) != 3 {
			b.Fatal("bad table 5")
		}
	}
}

// BenchmarkTable06 regenerates Table 6 (schema matching by iteration).
func BenchmarkTable06(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table6Data(context.Background())
		if err != nil || len(got) != 3 {
			b.Fatal("bad table 6")
		}
	}
}

// BenchmarkTable07 regenerates Table 7 (row clustering ablation).
func BenchmarkTable07(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table7Data(context.Background())
		if err != nil || len(got) != 6 {
			b.Fatal("bad table 7")
		}
	}
}

// BenchmarkTable08 regenerates Table 8 (new detection ablation).
func BenchmarkTable08(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table8Data(context.Background())
		if err != nil || len(got) != 6 {
			b.Fatal("bad table 8")
		}
	}
}

// BenchmarkTable09 regenerates Table 9 (new instances found).
func BenchmarkTable09(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table9Data(context.Background())
		if err != nil || len(got) != 7 {
			b.Fatal("bad table 9")
		}
	}
}

// BenchmarkTable10 regenerates Table 10 (facts found, fusion scoring).
func BenchmarkTable10(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table10Data(context.Background())
		if err != nil || len(got) != 10 {
			b.Fatal("bad table 10")
		}
	}
}

// BenchmarkTable11 regenerates Table 11 (large-scale profiling).
func BenchmarkTable11(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table11Data(context.Background())
		if err != nil || len(got) != 3 {
			b.Fatal("bad table 11")
		}
	}
}

// BenchmarkTable12 regenerates Table 12 (new entity property densities).
func BenchmarkTable12(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.Table12(context.Background())
		if err != nil || len(got.Rows) == 0 {
			b.Fatal("bad table 12")
		}
	}
}

// BenchmarkRankedEval regenerates the §6 ranked evaluation (MAP, P@k).
func BenchmarkRankedEval(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := s.RankedData(context.Background())
		if err != nil || rs.MAP < 0 || rs.MAP > 1 {
			b.Fatal("bad ranked eval")
		}
	}
}

// BenchmarkPipelineEndToEnd measures a full two-iteration pipeline run over
// the gold tables of the Song class (the hardest class).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	s := suite()
	if _, err := s.ModelsFor(context.Background(), kb.ClassSong); err != nil { // train outside the timed region
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.GoldRun(context.Background(), kb.ClassSong)
		if err != nil || len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkWorldGeneration measures synthetic world generation.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := world.DefaultConfig(0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		world.Generate(cfg)
	}
}

// BenchmarkCorpusSynthesis measures synthetic corpus generation.
func BenchmarkCorpusSynthesis(b *testing.B) {
	w := world.Generate(world.DefaultConfig(0.3))
	cfg := webtable.DefaultSynthConfig(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		webtable.Synthesize(w, cfg)
	}
}

// --- Incremental ingestion benchmarks ---
//
// The pair BenchmarkIngestBatch / BenchmarkFullRerun quantifies the win of
// the incremental engine: when the corpus grows by one batch, ingesting
// just that batch against the retained state must do measurably less work
// than re-running the whole pipeline from scratch over the grown corpus.

// ingestSetup returns the gold tables of the class split at the midpoint
// and an engine that has already ingested the first half.
func ingestSetup(b *testing.B) (base *core.Engine, firstHalf, secondHalf []int) {
	b.Helper()
	s := suite()
	models, err := s.ModelsFor(context.Background(), kb.ClassGFPlayer)
	if err != nil {
		b.Fatal(err)
	}
	tables := s.Golds[kb.ClassGFPlayer].TableIDs
	if len(tables) < 2 {
		b.Skip("not enough tables at bench scale")
	}
	half := len(tables) / 2
	cfg := s.Config(kb.ClassGFPlayer)
	cfg.Iterations = 1
	base = core.NewEngine(cfg, models)
	base.WriteBack = false // keep the shared bench KB pristine
	base.Ingest(context.Background(), tables[:half])
	return base, tables[:half], tables[half:]
}

// BenchmarkIngestBatch measures ingesting the second half of the corpus
// into an engine that retains the first half's state (each iteration forks
// the pre-loaded engine, so retained state is reused, not rebuilt).
func BenchmarkIngestBatch(b *testing.B) {
	base, _, second := ingestSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := base.Fork()
		out, _, _ := eng.Ingest(context.Background(), second)
		if len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkFullRerun measures the from-scratch alternative on the same
// grown corpus: a full pipeline run over both halves.
func BenchmarkFullRerun(b *testing.B) {
	s := suite()
	models, err := s.ModelsFor(context.Background(), kb.ClassGFPlayer)
	if err != nil {
		b.Fatal(err)
	}
	tables := s.Golds[kb.ClassGFPlayer].TableIDs
	cfg := s.Config(kb.ClassGFPlayer)
	cfg.Iterations = 1
	p := core.New(cfg, models)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ := p.Run(context.Background(), tables)
		if len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// --- Ablation benchmarks: blocking and KLj refinement in row clustering
// (§3.2), and the number of pipeline iterations ---

// benchClusterAblation clusters the corpus rows of the Song class (the
// class where clustering choices matter most) under the given blocking and
// KLj settings, reporting quality alongside time.
func benchClusterAblation(b *testing.B, blocking, klj bool) {
	s := suite()
	models, err := s.ModelsFor(context.Background(), kb.ClassSong)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Config(kb.ClassSong)
	cfg.ClusterOpts = cluster.Options{Blocking: blocking, KLj: klj, BatchSize: 64, MaxKLjRounds: 4}
	cfg.Iterations = 1
	p := core.New(cfg, models)
	tables := s.Golds[kb.ClassSong].TableIDs
	b.ReportAllocs()
	b.ResetTimer()
	var clusters int
	for i := 0; i < b.N; i++ {
		out, _ := p.Run(context.Background(), tables)
		clusters = out.Clustering.NumClusters()
	}
	b.ReportMetric(float64(clusters), "clusters")
}

// benchIterations measures the full pipeline at the given iteration count.
func benchIterations(b *testing.B, iters int) {
	s := suite()
	models, err := s.ModelsFor(context.Background(), kb.ClassGFPlayer)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Config(kb.ClassGFPlayer)
	cfg.Iterations = iters
	p := core.New(cfg, models)
	tables := s.Golds[kb.ClassGFPlayer].TableIDs
	b.ReportAllocs()
	b.ResetTimer()
	var mapped int
	for i := 0; i < b.N; i++ {
		out, _ := p.Run(context.Background(), tables)
		mapped = 0
		for _, m := range out.Mapping {
			mapped += len(m)
		}
	}
	b.ReportMetric(float64(mapped), "mapped-cols")
}

// BenchmarkAblationBlockingOn measures clustering with label blocking.
func BenchmarkAblationBlockingOn(b *testing.B) {
	benchClusterAblation(b, true, true)
}

// BenchmarkAblationBlockingOff measures clustering without blocking (every
// row compared against every cluster). F1 is unchanged; time is much worse.
func BenchmarkAblationBlockingOff(b *testing.B) {
	benchClusterAblation(b, false, true)
}

// BenchmarkAblationGreedyOnly measures the parallel greedy pass without the
// KLj refinement.
func BenchmarkAblationGreedyOnly(b *testing.B) {
	benchClusterAblation(b, true, false)
}

// BenchmarkAblationIterations1 runs the pipeline with a single iteration.
func BenchmarkAblationIterations1(b *testing.B) { benchIterations(b, 1) }

// BenchmarkAblationIterations2 runs the standard two iterations.
func BenchmarkAblationIterations2(b *testing.B) { benchIterations(b, 2) }

// BenchmarkAblationIterations3 runs a third iteration (the paper: no gain).
func BenchmarkAblationIterations3(b *testing.B) { benchIterations(b, 3) }

// serveBench holds the shared serving fixture: one grown KB served by two
// servers that differ only in response caching, so the cached and uncached
// paths measure the same retrieval work.
var (
	serveBenchOnce     sync.Once
	serveBenchErr      error
	serveBenchCached   *serve.Server
	serveBenchUncached *serve.Server
	serveBenchLookup   string
	serveBenchSearch   string
)

func serveBenchSetup(b *testing.B) (cached, uncached *serve.Server) {
	b.Helper()
	serveBenchOnce.Do(func() {
		w := world.Generate(world.DefaultConfig(0.2))
		c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
		byClass, _ := core.ClassifyTables(context.Background(), w.KB, c, 0.3, 0)
		tables := byClass[kb.ClassGFPlayer]
		cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
		cfg.Iterations = 1
		writerEngine := core.NewEngine(cfg, core.Models{})
		readerEngine := core.NewEngine(cfg, core.Models{})

		var err error
		serveBenchCached, err = serve.New(serve.Config{
			KB: w.KB, Corpus: c,
			Engines: map[kb.ClassID]*core.Engine{kb.ClassGFPlayer: writerEngine},
		})
		if err != nil {
			serveBenchErr = err
			return
		}
		// Grow the KB by one epoch so lookups hit ingested instances too.
		body, _ := json.Marshal(serve.IngestRequest{Class: "GF-Player", Tables: tables})
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest?wait=1", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		serveBenchCached.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			serveBenchErr = fmt.Errorf("bench ingest = %d: %s", rec.Code, rec.Body.String())
			return
		}
		// The uncached server shares the grown KB; CacheEntries < 0
		// disables its response cache entirely.
		serveBenchUncached, err = serve.New(serve.Config{
			KB: w.KB, Corpus: c,
			Engines:      map[kb.ClassID]*core.Engine{kb.ClassGFPlayer: readerEngine},
			CacheEntries: -1,
		})
		if err != nil {
			serveBenchErr = err
			return
		}
		serveBenchLookup = fmt.Sprintf("/v1/instances/%d", w.KB.NumInstances()-1)
		label := w.KB.Instance(0).Label()
		serveBenchSearch = "/v1/search?q=" + url.QueryEscape(label) + "&class=GF-Player"
	})
	if serveBenchErr != nil {
		b.Fatalf("serve bench fixture: %v", serveBenchErr)
	}
	return serveBenchCached, serveBenchUncached
}

func benchServeGet(b *testing.B, s *serve.Server, target string) {
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

// BenchmarkServeLookup measures entity lookup by instance ID through the
// serving stack: the cached path (LRU keyed on kb.Version) against the
// uncached path that renders from the KB every time. The first serving
// latency numbers of the repo; the cached figure must come in under the
// uncached one.
func BenchmarkServeLookup(b *testing.B) {
	cached, uncached := serveBenchSetup(b)
	b.Run("cached", func(b *testing.B) { benchServeGet(b, cached, serveBenchLookup) })
	b.Run("uncached", func(b *testing.B) { benchServeGet(b, uncached, serveBenchLookup) })
}

// BenchmarkServeSearch measures fuzzy label search (a query with one
// misspelled token, so the index's fuzzy fallback runs on every cache
// miss) through the serving stack: warm (LRU response cache hit) and cold
// (cache disabled, deletion-neighborhood posting index). These are the
// tracked serve-layer numbers of BENCH_hotpath.json; see also
// internal/bench.
func BenchmarkServeSearch(b *testing.B) {
	b.Run("warm", bench.ServeSearchWarm)
	b.Run("cold", bench.ServeSearchCold)
}

// BenchmarkClusterGreedy measures the parallel greedy correlation
// clustering (blocking on, KLj off) over prepared rows — the per-pair
// similarity scoring hot path. Tracked in BENCH_hotpath.json.
func BenchmarkClusterGreedy(b *testing.B) {
	bench.ClusterGreedy(b)
}
