package cluster

import (
	"context"
	"errors"
	"reflect"
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
// properties so the value metrics have facts to compare. build builds a
// set of tables into fresh rows against the given PHI model and block
// index, as the engine's Builder does.
func cacheFixture(t *testing.T) (*Scorer, []int, func(phi *PhiModel, blocks *BlockIndex, tids []int) []*Row) {
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
	build := func(phi *PhiModel, blocks *BlockIndex, ids []int) []*Row {
		b := &Builder{KB: w.KB, Corpus: corpus, Class: class, Mapping: mapping, Phi: phi, Blocks: blocks}
		return b.Build(ids)
	}
	return scorer, tids, build
}

// checkCacheEntries requires every row-pair score the cache holds to equal
// the scorer's fresh score of the pair as the rows stand now.
func checkCacheEntries(t *testing.T, sc *ScoreCache) {
	t.Helper()
	for k, got := range sc.rows {
		if want := sc.scorer.Pair(k[0], k[1]); got != want {
			t.Fatalf("cached score of %v/%v = %v, fresh %v", k[0].Ref, k[1].Ref, got, want)
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
	scorer, tids, build := cacheFixture(t)
	opts := NewOptions()
	opts.Workers = 2
	half := len(tids) / 2
	run := func(t *testing.T, shared bool, moveGen bool) (*Clustering, int) {
		phi, blocks := NewPhiModel(), NewBlockIndex()
		var first, second []*Row
		if moveGen {
			first = build(phi, blocks, tids[:half])
		} else {
			rows := build(phi, blocks, tids)
			first, second = rows[:len(rows)/2], rows[len(rows)/2:]
		}
		cache := NewScoreCache(phi)
		inc := NewIncremental(scorer, opts)
		if err := inc.Add(context.Background(), first, cache); err != nil {
			t.Fatal(err)
		}
		if moveGen {
			gen := phi.generation()
			second = build(phi, blocks, tids[half:])
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
	_, tids, build := cacheFixture(t)
	phi, blocks := NewPhiModel(), NewBlockIndex()
	first := build(phi, blocks, tids[:len(tids)-1])
	gen := phi.generation()
	again := build(phi, blocks, tids[:len(tids)-1])
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
	build(phi, blocks, tids[len(tids)-1:])
	if phi.generation() == gen {
		t.Fatal("adding a new table left the generation unchanged")
	}
}

// cancelMetric cancels its context on the n-th comparison.
type cancelMetric struct {
	calls  *atomic.Int32
	n      int32
	cancel context.CancelFunc
}

func (cancelMetric) Name() string { return "CANCEL" }

func (m cancelMetric) Compare(a, b *Row) (float64, float64) {
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
			Metrics: []Metric{cancelMetric{calls: &calls, n: 3, cancel: cancel}},
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
