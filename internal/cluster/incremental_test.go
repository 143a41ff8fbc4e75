package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// incTestRows builds a deterministic row set with several same-label groups
// spread over distinct tables.
func incTestRows() []*Row {
	labels := []string{
		"Tom Brady", "Eli Manning", "Peyton Manning", "Drew Brees",
		"Aaron Rodgers", "Russell Wilson",
	}
	var rows []*Row
	for table := 0; table < 3; table++ {
		for i, l := range labels {
			rows = append(rows, mkRow(table, i, l, nil))
		}
	}
	return rows
}

// TestIncrementalOneShotEqualsCluster is the bit-for-bit equivalence the
// engine refactor relies on: a single Add over a fresh Incremental must
// reproduce ClusterCtx exactly.
func TestIncrementalOneShotEqualsCluster(t *testing.T) {
	rows := incTestRows()
	for _, klj := range []bool{true, false} {
		opts := NewOptions()
		opts.KLj = klj
		opts.Workers = 1
		want := mustCluster(t, rows, labelScorer(), opts)

		inc := NewIncremental(labelScorer(), opts)
		inc.Add(context.Background(), rows, nil)
		got := inc.Result()
		if !reflect.DeepEqual(want.Assign, got.Assign) {
			t.Errorf("klj=%v: one-shot incremental differs from ClusterCtx", klj)
		}
	}
}

// TestIncrementalGrowth verifies a second batch clusters against the
// retained state: same-label rows arriving later join the clusters created
// by the first batch instead of forming duplicates.
func TestIncrementalGrowth(t *testing.T) {
	opts := NewOptions()
	opts.Workers = 1
	inc := NewIncremental(labelScorer(), opts)

	batch1 := []*Row{
		mkRow(0, 0, "Tom Brady", nil),
		mkRow(0, 1, "Eli Manning", nil),
	}
	inc.Add(context.Background(), batch1, nil)
	if n := inc.Result().NumClusters(); n != 2 {
		t.Fatalf("batch 1: %d clusters, want 2", n)
	}
	if inc.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", inc.NumRows())
	}

	batch2 := []*Row{
		mkRow(1, 0, "Tom Brady", nil),      // joins the existing Brady cluster
		mkRow(1, 1, "Russell Wilson", nil), // genuinely new
	}
	inc.Add(context.Background(), batch2, nil)
	out := inc.Result()
	if n := out.NumClusters(); n != 3 {
		t.Fatalf("after batch 2: %d clusters, want 3", n)
	}
	if out.Assign[batch1[0].Ref] != out.Assign[batch2[0].Ref] {
		t.Errorf("later same-label row did not join the retained cluster: %v vs %v",
			out.Assign[batch1[0].Ref], out.Assign[batch2[0].Ref])
	}
}

// TestPersistentBlocksReachEarlierLabels guards the cross-epoch blocking
// fix: a later batch's row whose label is a fuzzy variant of an earlier
// batch's label must receive that earlier label as a block (a fresh
// per-batch index could not — the label is not in the batch).
func TestPersistentBlocksReachEarlierLabels(t *testing.T) {
	bi := NewBlockIndex()
	first := []*Row{mkRow(0, 0, "Tom Brady", nil)}
	bi.Assign(first, 6)

	second := []*Row{mkRow(1, 0, "Brady Tom Jr", nil)}
	bi.Assign(second, 6)
	found := false
	for _, b := range second[0].Blocks {
		if b == "tom brady" {
			found = true
		}
	}
	if !found {
		t.Errorf("later batch's blocks %v miss the earlier label", second[0].Blocks)
	}
	// And the clusterer therefore compares and joins them across batches.
	opts := NewOptions()
	opts.Workers = 1
	inc := NewIncremental(labelScorer(), opts)
	inc.Add(context.Background(), first, nil)
	inc.Add(context.Background(), second, nil)
	out := inc.Result()
	if out.Assign[first[0].Ref] != out.Assign[second[0].Ref] {
		t.Error("fuzzy cross-batch variant did not reach the retained cluster")
	}
}

// TestBlockIndexCloneIsolated verifies fork isolation of the label
// universe.
func TestBlockIndexCloneIsolated(t *testing.T) {
	bi := NewBlockIndex()
	bi.Assign([]*Row{mkRow(0, 0, "Tom Brady", nil)}, 6)
	fork := bi.Clone()
	fork.Assign([]*Row{mkRow(1, 0, "Drew Brees", nil)}, 6)

	probe := []*Row{mkRow(2, 0, "Brees Drew", nil)}
	bi.Assign(probe, 6)
	for _, b := range probe[0].Blocks {
		if b == "drew brees" {
			t.Fatal("fork's labels leaked into the original index")
		}
	}
}

// TestPersistentPhiMatchesOneShot guards the cross-epoch PHI fix: after a
// multi-batch build over a shared PhiModel plus a Refresh of the earlier
// rows, every row must carry exactly the TableVec a one-shot build over
// the full table set produces — all vectors come from one model.
func TestPersistentPhiMatchesOneShot(t *testing.T) {
	k := kb.New()
	mk := func(labels ...string) *webtable.Table {
		cells := make([][]string, len(labels))
		for i, l := range labels {
			cells[i] = []string{l}
		}
		return &webtable.Table{Headers: []string{"Player"}, LabelCol: 0, Cells: cells}
	}
	corpus := webtable.NewCorpus([]*webtable.Table{
		mk("Tom Brady", "Drew Brees"),
		mk("Tom Brady", "Aaron Rodgers"),
		mk("Drew Brees", "Aaron Rodgers"),
	})
	oneShot := (&Builder{KB: k, Corpus: corpus, Class: kb.ClassGFPlayer}).Build([]int{0, 1, 2})
	want := make(map[webtable.RowRef]strsim.SparseVec, len(oneShot))
	for _, r := range oneShot {
		want[r.Ref] = r.TableVec
	}

	pm := NewPhiModel()
	b := &Builder{KB: k, Corpus: corpus, Class: kb.ClassGFPlayer, Phi: pm}
	first := b.Build([]int{0, 1})
	second := b.Build([]int{2})
	pm.Refresh(first)
	for _, r := range append(first, second...) {
		if !reflect.DeepEqual(want[r.Ref], r.TableVec) {
			t.Fatalf("row %v: incremental TableVec %v != one-shot %v",
				r.Ref, r.TableVec, want[r.Ref])
		}
	}
}

// TestIncrementalCompactsEmptyClusters guards the state-compaction fix:
// clusters emptied by the KLj merge pass must not linger in the retained
// state, and the block index must only reference live clusters.
func TestIncrementalCompactsEmptyClusters(t *testing.T) {
	opts := NewOptions()
	opts.Workers = 1
	inc := NewIncremental(labelScorer(), opts)
	// Same batch, so the parallel greedy snapshot makes each row its own
	// cluster; KLj then merges them, emptying one.
	inc.Add(context.Background(), []*Row{mkRow(0, 0, "Tom Brady", nil), mkRow(1, 0, "Tom Brady", nil)}, nil)
	if got := inc.Result().NumClusters(); got != 1 {
		t.Fatalf("clusters = %d, want 1", got)
	}
	if got := len(inc.c.clusters); got != 1 {
		t.Errorf("retained state holds %d clusterStates, want 1 (empties compacted)", got)
	}
	for b, members := range inc.c.blockIndex {
		for ci := range members {
			if ci >= len(inc.c.clusters) || len(inc.c.clusters[ci].rows) == 0 {
				t.Errorf("block %q references dead cluster %d", b, ci)
			}
		}
	}
}

// TestIncrementalAddEmptyIsNoop verifies the empty batch contract.
func TestIncrementalAddEmptyIsNoop(t *testing.T) {
	opts := NewOptions()
	opts.Workers = 1
	inc := NewIncremental(labelScorer(), opts)
	inc.Add(context.Background(), []*Row{mkRow(0, 0, "Tom Brady", nil)}, nil)
	before := inc.Result()
	inc.Add(context.Background(), nil, nil)
	after := inc.Result()
	if !reflect.DeepEqual(before.Assign, after.Assign) {
		t.Error("empty Add changed the clustering")
	}
}

// TestIncrementalClone verifies Clone isolation: adds on a clone leave the
// original untouched, and the clone starts from the original's state.
func TestIncrementalClone(t *testing.T) {
	opts := NewOptions()
	opts.Workers = 1
	base := NewIncremental(labelScorer(), opts)
	seed := mkRow(0, 0, "Tom Brady", nil)
	base.Add(context.Background(), []*Row{seed}, nil)

	fork := base.Clone()
	joiner := mkRow(1, 0, "Tom Brady", nil)
	fork.Add(context.Background(), []*Row{joiner, mkRow(1, 1, "Drew Brees", nil)}, nil)

	if got := base.NumRows(); got != 1 {
		t.Errorf("clone add leaked into base: %d rows", got)
	}
	if got := fork.NumRows(); got != 3 {
		t.Errorf("fork rows = %d, want 3", got)
	}
	forkOut := fork.Result()
	if forkOut.Assign[seed.Ref] != forkOut.Assign[joiner.Ref] {
		t.Error("fork did not cluster the new row against inherited state")
	}
}

// BenchmarkIncrementalClone100k isolates the engine's per-iteration
// speculative Clone at production scale: 100k retained rows in 20k
// clusters behind a 20k-key block index — the deferred O(corpus) term
// PR 7 left in the epoch loop. The synthetic state is built directly
// (clustering 100k rows in a benchmark setup would dominate the run);
// shapes mirror compacted post-epoch state. ROADMAP records the
// measured numbers against the per-epoch ingest cost.
func BenchmarkIncrementalClone100k(b *testing.B) {
	const nClusters = 20_000
	const rowsPer = 5
	opts := NewOptions()
	opts.Workers = 1
	inc := NewIncremental(labelScorer(), opts)
	c := inc.c
	for ci := 0; ci < nClusters; ci++ {
		cl := &clusterState{rows: make([]*Row, rowsPer), blocks: make(map[string]bool, 2)}
		label := fmt.Sprintf("player %06d", ci)
		for r := 0; r < rowsPer; r++ {
			cl.rows[r] = mkRow(ci%97, ci*rowsPer+r, label, nil)
		}
		for _, bk := range []string{label, fmt.Sprintf("player %06d", (ci+1)%nClusters)} {
			cl.blocks[bk] = true
			m := c.blockIndex[bk]
			if m == nil {
				m = make(map[int]bool, 2)
				c.blockIndex[bk] = m
			}
			m[ci] = true
		}
		c.clusters = append(c.clusters, cl)
	}
	c.ver = make([]uint64, nClusters)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if clone := inc.Clone(); clone.NumRows() != nClusters*rowsPer {
			b.Fatal("clone lost rows")
		}
	}
}

// TestIncrementalMultiBatchCloseToOneShot checks growth quality on
// realistic corpus rows: incrementally added rows must cover every row and
// produce a cluster count close to one-shot clustering (KLj repairs
// batch-boundary errors).
func TestIncrementalMultiBatchCloseToOneShot(t *testing.T) {
	w, corpus := testWorldCorpus()
	class := kb.ClassID("dbo:GridironFootballPlayer")
	var tableIDs []int
	for _, tb := range corpus.Tables {
		if tb.Truth != nil && tb.Truth.Class == class {
			match.EnsureDetected(tb)
			tableIDs = append(tableIDs, tb.ID)
		}
	}
	if len(tableIDs) < 4 {
		t.Skip("not enough player tables at this scale")
	}
	builder := &Builder{KB: w.KB, Corpus: corpus, Class: class,
		Mapping: map[int]map[int]kb.PropertyID{}}
	rows := builder.Build(tableIDs)
	if len(rows) == 0 {
		t.Skip("no rows built")
	}
	opts := NewOptions()
	opts.Workers = 1
	full := mustCluster(t, rows, labelScorer(), opts)

	inc := NewIncremental(labelScorer(), opts)
	half := len(rows) / 2
	inc.Add(context.Background(), rows[:half], nil)
	inc.Add(context.Background(), rows[half:], nil)
	grown := inc.Result()

	if got, want := len(grown.Assign), len(full.Assign); got != want {
		t.Fatalf("row coverage differs: %d vs %d", got, want)
	}
	lo, hi := full.NumClusters()*8/10, full.NumClusters()*12/10+1
	if n := grown.NumClusters(); n < lo || n > hi {
		t.Errorf("incremental clusters = %d, one-shot = %d (want within ±20%%)",
			n, full.NumClusters())
	}
}
