package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/match"
)

// TestMetricMemoEqualMatchesThresholdsEqual holds the value metrics'
// memoized equality to dtype.Thresholds.Equal for every pair of kinds,
// cold and memo-warm, in both argument orders and under two threshold
// sets.
func TestMetricMemoEqualMatchesThresholdsEqual(t *testing.T) {
	values := []struct {
		name string
		v    dtype.Value
	}{
		{"text", dtype.NewText("Tom Brady")},
		{"text spacing", dtype.NewText("tom  brady")},
		{"text near", dtype.NewText("Tom Bradey")},
		{"text other", dtype.NewText("New England Patriots")},
		{"text empty", dtype.NewText("")},
		{"ref", dtype.NewRef("New England Patriots")},
		{"ref short", dtype.NewRef("Patriots")},
		{"ref same as text", dtype.NewRef("Tom Brady")},
		{"ref empty", dtype.NewRef("")},
		{"nominal", dtype.NewNominal("QB")},
		{"nominal case", dtype.NewNominal("qb")},
		{"nominal other", dtype.NewNominal("WR")},
		{"nominal empty", dtype.NewNominal("")},
		{"nominal int", dtype.NewNominalInt(12)},
		{"nominal int other", dtype.NewNominalInt(13)},
		{"quantity", dtype.NewQuantity(100)},
		{"quantity near", dtype.NewQuantity(103)},
		{"quantity far", dtype.NewQuantity(120)},
		{"quantity zero", dtype.NewQuantity(0)},
		{"date", dtype.NewDate(1977, 8, 3)},
		{"date other day", dtype.NewDate(1977, 8, 4)},
		{"year", dtype.NewYear(1977)},
		{"year other", dtype.NewYear(1978)},
		{"unknown", dtype.Value{Kind: dtype.Unknown, Raw: "x"}},
	}
	thresholds := []dtype.Thresholds{
		dtype.DefaultThresholds(),
		{Text: 0.5, Ref: 0.6, QuantityTol: 0.2},
	}
	s := &Scorer{Metrics: MetricSet()}
	for _, th := range thresholds {
		memo := newMetricMemo(s)
		outcomes := map[bool]int{}
		for pass := 0; pass < 2; pass++ { // cold, then memo-warm
			for _, a := range values {
				for _, b := range values {
					want := th.Equal(a.v, b.v)
					if got := memo.equal(th, a.v, b.v); got != want {
						t.Fatalf("%+v pass %d: memo equal(%s, %s) = %v, Thresholds.Equal %v", th, pass, a.name, b.name, got, want)
					}
					if got := (*metricMemo)(nil).equal(th, a.v, b.v); got != want {
						t.Fatalf("%+v: unmemoized equal(%s, %s) = %v, want %v", th, a.name, b.name, got, want)
					}
					outcomes[want]++
				}
			}
		}
		if outcomes[true] == 0 || outcomes[false] == 0 {
			t.Fatalf("%+v: degenerate table, outcomes %v", th, outcomes)
		}
	}
}

// cacheFixture returns a scorer over all six metrics and the rows of the
// fixture world's song tables, mapped by their ground-truth column
// properties so the value metrics have facts to compare. newBuilder
// returns a Builder of those tables against the given PHI model and block
// index, as the engine makes one.
func cacheFixture(t *testing.T) (*Scorer, []int, func(phi *PhiModel, blocks *BlockIndex) *Builder) {
	t.Helper()
	w, corpus := testWorldCorpus()
	class := kb.ClassSong
	mapping := map[int]map[int]kb.PropertyID{}
	var tids []int
	for _, tb := range corpus.Tables {
		if tb.Truth == nil || tb.Truth.Class != class {
			continue
		}
		match.EnsureDetected(tb)
		m := map[int]kb.PropertyID{}
		for col, pid := range tb.Truth.ColProperty {
			if pid != "" {
				m[col] = pid
			}
		}
		mapping[tb.ID] = m
		if tids = append(tids, tb.ID); len(tids) == 24 {
			break
		}
	}
	if len(tids) < 4 {
		t.Skip("not enough song tables at this scale")
	}
	metrics := MetricSet()
	weights := make([]float64, len(metrics))
	for i := range weights {
		weights[i] = 1
	}
	scorer := &Scorer{Metrics: metrics, Agg: &agg.WeightedAverage{Weights: weights, Threshold: 0.6}}
	newBuilder := func(phi *PhiModel, blocks *BlockIndex) *Builder {
		return &Builder{KB: w.KB, Corpus: corpus, Class: class, Mapping: mapping, Phi: phi, Blocks: blocks}
	}
	return scorer, tids, newBuilder
}

// checkCacheEntries requires every row-pair score the cache holds to equal
// the scorer's fresh score of the pair as the rows stand now, and no pair
// to be stored in both orders.
func checkCacheEntries(t *testing.T, sc *ScoreCache) {
	t.Helper()
	for k, got := range sc.rows {
		if want := sc.scorer.Pair(k[0], k[1]); got != want {
			t.Fatalf("cached score of %v/%v = %v, fresh %v", k[0].Ref, k[1].Ref, got, want)
		}
		if _, ok := sc.rows[[2]*Row{k[1], k[0]}]; ok && k[0] != k[1] {
			t.Fatalf("pair %v/%v is stored in both orders", k[0].Ref, k[1].Ref)
		}
	}
}

// TestScorerSymmetric requires the Scorer's symmetry contract, on which
// ScoreCache's one entry per unordered pair rests: every metric returns
// bitwise equal scores and confidences for (a, b) and (b, a), and the
// memoized pairMemo equals Pair in both orders. The rows are
// builder-prepared rows, rows BuildReusing kept (their vectors rewritten in
// place under a new PHI generation) and hand-built rows with no Prep, whose
// implicit attributes make IMPLICIT_ATT's confidence sum depend on the
// order it adds them in; every pair of them is checked under the fixture's
// weighted average and under a learned agg.Combined, whose forest reads
// the confidences.
func TestScorerSymmetric(t *testing.T) {
	scorer, tids, newBuilder := cacheFixture(t)
	b := newBuilder(NewPhiModel(), NewBlockIndex())
	half := len(tids) / 2
	_, first := b.BuildReusing(tids[:half], nil)
	all, tables := b.BuildReusing(tids, first)
	var rows []*Row
	nKept := 0
	for _, tid := range tids {
		tr := tables[tid]
		if tr == nil {
			continue
		}
		if tr == first[tid] {
			nKept++
		}
		// A few rows per table keep the pair count small.
		rows = append(rows, tr.rows[:min(len(tr.rows), 4)]...)
	}
	if nKept == 0 {
		t.Fatal("BuildReusing kept no table")
	}
	implicit := func(scores map[int]float64) map[kb.PropertyID]ImplicitAttr {
		m := map[kb.PropertyID]ImplicitAttr{}
		for i, sc := range scores {
			m[kb.PropertyID(fmt.Sprintf("dbo:p%d", i))] = ImplicitAttr{Value: dtype.NewText("x"), Score: sc}
		}
		return m
	}
	values := func(pids ...int) map[kb.PropertyID]dtype.Value {
		m := map[kb.PropertyID]dtype.Value{}
		for _, i := range pids {
			m[kb.PropertyID(fmt.Sprintf("dbo:p%d", i))] = dtype.NewText("x")
		}
		return m
	}
	// (0.1 + 0.7) + 0.2 and (0.2 + 0.1) + 0.7 differ in the last bit.
	h1 := mkRow(9001, 0, "Tom Brady", values(2))
	h1.Implicit = implicit(map[int]float64{0: 0.1, 1: 0.7})
	h2 := mkRow(9002, 3, "Tom Bradey", values(0, 1))
	h2.Implicit = implicit(map[int]float64{2: 0.2})
	h3 := mkRow(9002, 1, all[0].Label, values(0, 1, 2))
	h3.Implicit = implicit(map[int]float64{0: 0.3, 1: 0.6, 2: 0.1})
	rows = append(rows, h1, h2, h3)

	var examples []PairExample
	for i := 0; i+1 < len(rows); i++ {
		examples = append(examples, PairExample{A: rows[i], B: rows[i+1], Match: i%3 == 0})
	}
	learned, _ := LearnScorer(scorer.Metrics, examples, 1)
	for _, s := range []*Scorer{scorer, learned} {
		memo := newMetricMemo(s)
		for i, a := range rows {
			for _, b := range rows[i+1:] {
				fab, fba := s.Features(a, b), s.Features(b, a)
				for m, mt := range s.Metrics {
					if math.Float64bits(fab.Scores[m]) != math.Float64bits(fba.Scores[m]) ||
						math.Float64bits(fab.Confs[m]) != math.Float64bits(fba.Confs[m]) {
						t.Fatalf("%s(%v, %v) = %v/%v, reversed %v/%v", mt.Name(), a.Ref, b.Ref,
							fab.Scores[m], fab.Confs[m], fba.Scores[m], fba.Confs[m])
					}
				}
				p := s.Pair(a, b)
				if r := s.Pair(b, a); math.Float64bits(p) != math.Float64bits(r) {
					t.Fatalf("%T: Pair(%v, %v) = %v, reversed %v", s.Agg, a.Ref, b.Ref, p, r)
				}
				for _, m := range [][2]*Row{{a, b}, {b, a}} {
					if v := s.pairMemo(m[0], m[1], memo); math.Float64bits(v) != math.Float64bits(p) {
						t.Fatalf("%T: pairMemo(%v, %v) = %v, Pair %v", s.Agg, m[0].Ref, m[1].Ref, v, p)
					}
				}
			}
		}
	}
}

// TestScoreCacheSharedAddsMatchFreshCaches runs two Adds sharing one
// ScoreCache and the same two Adds with a fresh cache each, and requires
// identical clusterings. "same generation" mirrors an epoch's pipeline
// iterations (the PHI model does not move between the Adds, so the second
// Add must be served scores the first computed); "generation moves"
// mirrors consecutive epochs, where the second batch extends the PHI model
// and refreshes the first batch's vectors, so the shared cache must start
// over. The greedy pass runs on two workers, so under -race this also
// checks the per-worker scratch.
func TestScoreCacheSharedAddsMatchFreshCaches(t *testing.T) {
	scorer, tids, newBuilder := cacheFixture(t)
	opts := NewOptions()
	opts.Workers = 2
	half := len(tids) / 2
	run := func(t *testing.T, shared bool, moveGen bool) (*Clustering, int) {
		phi, blocks := NewPhiModel(), NewBlockIndex()
		var first, second []*Row
		if moveGen {
			first = newBuilder(phi, blocks).Build(tids[:half])
		} else {
			rows := newBuilder(phi, blocks).Build(tids)
			first, second = rows[:len(rows)/2], rows[len(rows)/2:]
		}
		cache := NewScoreCache(phi)
		inc := NewIncremental(scorer, opts)
		if err := inc.Add(context.Background(), first, cache); err != nil {
			t.Fatal(err)
		}
		if moveGen {
			gen := phi.generation()
			second = newBuilder(phi, blocks).Build(tids[half:])
			if phi.generation() == gen {
				t.Fatal("a batch of new tables left the PHI generation unchanged")
			}
			phi.Refresh(first)
		}
		scored := 0
		if !shared {
			scored = cache.Scored()
			cache = NewScoreCache(phi)
		}
		if err := inc.Add(context.Background(), second, cache); err != nil {
			t.Fatal(err)
		}
		checkCacheEntries(t, cache)
		return inc.Result(), scored + cache.Scored()
	}
	for _, moveGen := range []bool{false, true} {
		name := map[bool]string{false: "same generation", true: "generation moves"}[moveGen]
		t.Run(name, func(t *testing.T) {
			got, sharedScored := run(t, true, moveGen)
			want, freshScored := run(t, false, moveGen)
			if !reflect.DeepEqual(got.Assign, want.Assign) {
				t.Fatal("shared cache clustering differs from fresh caches")
			}
			t.Logf("scores computed: shared cache %d, fresh caches %d", sharedScored, freshScored)
			if moveGen && sharedScored != freshScored {
				t.Fatal("cache served scores across a PHI generation change")
			} else if !moveGen && sharedScored >= freshScored {
				t.Fatal("second Add was never served a score the first computed")
			}
		})
	}
}

// TestPhiRebuildKeepsGeneration requires a second Build of the same tables
// to leave the PHI generation, and with it every vector, unchanged, and
// Refresh to skip at an unchanged generation.
func TestPhiRebuildKeepsGeneration(t *testing.T) {
	_, tids, newBuilder := cacheFixture(t)
	phi, blocks := NewPhiModel(), NewBlockIndex()
	first := newBuilder(phi, blocks).Build(tids[:len(tids)-1])
	gen := phi.generation()
	again := newBuilder(phi, blocks).Build(tids[:len(tids)-1])
	if phi.generation() != gen {
		t.Fatalf("rebuilding the same tables moved the generation %d -> %d", gen, phi.generation())
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].TableVec, again[i].TableVec) {
			t.Fatalf("row %v: vector changed on an identical rebuild", first[i].Ref)
		}
	}
	phi.Refresh(first) // the first Refresh at this generation
	tampered := again[len(again)-1].TableVec
	first[0].TableVec = tampered
	phi.Refresh(first)
	if !reflect.DeepEqual(first[0].TableVec, tampered) {
		t.Fatal("Refresh rewrote vectors at an unchanged generation")
	}
	newBuilder(phi, blocks).Build(tids[len(tids)-1:])
	if phi.generation() == gen {
		t.Fatal("adding a new table left the generation unchanged")
	}
}

// cancelMetric cancels its context on the n-th comparison. Counting and
// cancelling are one step under mu: otherwise the worker that counted the
// n-th call can be preempted before it cancels while the other worker
// scores the rest of the batch, and the fan-out then rightly completes.
type cancelMetric struct {
	mu     *sync.Mutex
	calls  *atomic.Int32
	n      int32
	cancel context.CancelFunc
}

func (cancelMetric) Name() string { return "CANCEL" }

func (m cancelMetric) Compare(a, b *Row) (float64, float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls.Add(1) == m.n {
		m.cancel()
	}
	return 1, 1
}

// TestGreedyCancelMidBatch cancels an Add while its greedy pass is scoring
// a 64-row batch: scoring must stop within a row per worker, and no
// decision of the partly scored batch may be applied.
func TestGreedyCancelMidBatch(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		s := &Scorer{
			Metrics: []Metric{cancelMetric{mu: new(sync.Mutex), calls: &calls, n: 3, cancel: cancel}},
			Agg:     &agg.WeightedAverage{Weights: []float64{1}, Threshold: 0.5},
		}
		opts := Options{Workers: workers, BatchSize: 64, Blocking: true}
		inc := NewIncremental(s, opts)
		// One seed cluster: every batch row blocks with it, so each row
		// costs exactly one comparison.
		if err := inc.Add(context.Background(), []*Row{mkRow(0, 0, "Tom Brady", nil)}, nil); err != nil {
			t.Fatal(err)
		}
		var batch []*Row
		for i := 1; i <= 64; i++ {
			batch = append(batch, mkRow(i, 0, "Tom Brady", nil))
		}
		err := inc.Add(ctx, batch, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: Add = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n > 3+int32(workers) {
			t.Errorf("workers %d: %d comparisons after cancelling at the 3rd", workers, n)
		}
		if n := inc.NumRows(); n != 1 {
			t.Errorf("workers %d: %d rows clustered, want only the seed (no decision applied)", workers, n)
		}
	}
}
