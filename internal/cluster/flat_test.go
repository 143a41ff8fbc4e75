package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// phiTables generates overlapping label sets per table from a small shared
// vocabulary, including duplicate labels within a table (rows sharing a
// label) — the regime the incremental co-occurrence counts must mirror.
func phiTables(rng *rand.Rand, nTables, vocab int) [][]string {
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("label-%02d", i)
	}
	out := make([][]string, nTables)
	for t := range out {
		n := 2 + rng.Intn(5)
		labels := make([]string, 0, n)
		for i := 0; i < n; i++ {
			labels = append(labels, words[rng.Intn(vocab)])
		}
		out[t] = labels
	}
	return out
}

// TestPhiFinalizeIncrementalMatchesReference proves the fast finalize path
// (incremental co-occurrence counts) is float-identical to the reference
// derivation, across fresh adds and identical re-adds.
func TestPhiFinalizeIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tables := phiTables(rng, 30, 18)
	fast := newPhiModel()
	ref := newPhiModel()
	addBoth := func(id int, labels []string) {
		fast.addTable(id, labels)
		ref.addTable(id, labels)
	}
	for id, labels := range tables {
		addBoth(id, labels)
		if id%7 == 0 { // interleave finalize calls, as per-epoch builds do
			fast.finalize()
			ref.finalizeReference()
			if !reflect.DeepEqual(fast.vectors, ref.vectors) {
				t.Fatalf("after table %d: fast vectors diverge from reference", id)
			}
		}
	}
	// Re-adds of known tables (the engine re-builds each batch table once
	// per pipeline iteration) must not perturb the counts.
	for id := 0; id < 10; id++ {
		addBoth(id, tables[id])
	}
	fast.finalize()
	ref.finalizeReference()
	if fast.nLabels != ref.nLabels {
		t.Fatalf("nLabels %d vs %d", fast.nLabels, ref.nLabels)
	}
	if !reflect.DeepEqual(fast.vectors, ref.vectors) {
		t.Fatal("fast vectors diverge from reference after re-adds")
	}
	for tb := range tables {
		a, b := fast.tableVector(tb), ref.tableVector(tb)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tableVector(%d) diverges: %v vs %v", tb, a, b)
		}
	}
}

// kljUnmemoized clears the refinement memos, forcing the next Add's KLj to
// re-evaluate every candidate pair from scratch — the reference behavior
// the cross-batch memo persistence must reproduce while rows are immutable.
func kljUnmemoized(inc *Incremental) {
	inc.c.pairNoop = make(map[[2]int][2]uint64)
	inc.c.splitNoop = make(map[int]uint64)
	inc.c.lastKljVer = nil
}

// TestKLjMemoEquivalentAcrossBatches runs the same multi-batch incremental
// build twice — once with the persistent no-op memos, once clearing them
// before every Add — and requires identical clusterings after each batch.
func TestKLjMemoEquivalentAcrossBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	rows := blockTestRows(rng, 300)
	mk := func(src []*Row) []*Row {
		out := make([]*Row, len(src))
		for i, r := range src {
			rr := *r
			rr.Ref.Table = i / 7
			rr.Ref.Row = i % 7
			rr.Blocks = []string{rr.NormLabel}
			out[i] = &rr
		}
		return out
	}
	memo := NewIncremental(labelScorer(), NewOptions())
	plain := NewIncremental(labelScorer(), NewOptions())
	a, b := mk(rows), mk(rows)
	for start := 0; start < len(rows); start += 100 {
		end := start + 100
		kljUnmemoized(plain)
		if err := memo.Add(context.Background(), a[start:end], nil); err != nil {
			t.Fatal(err)
		}
		if err := plain.Add(context.Background(), b[start:end], nil); err != nil {
			t.Fatal(err)
		}
		mr, pr := memo.Result(), plain.Result()
		if !reflect.DeepEqual(mr.Assign, pr.Assign) {
			t.Fatalf("batch ending %d: memoized assignment diverges from unmemoized", end)
		}
		if len(mr.Clusters) != len(pr.Clusters) {
			t.Fatalf("batch ending %d: %d vs %d clusters", end, len(mr.Clusters), len(pr.Clusters))
		}
	}
}

// TestCompactInvariants checks the internal state after each Add: no empty
// clusters linger once a KLj mutation happened, the version slice tracks
// the cluster slice, and block bookkeeping matches exactly what a from-
// scratch rebuild would produce — whether compact ran or was skipped as a
// no-op.
func TestCompactInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	rows := blockTestRows(rng, 200)
	for i, r := range rows {
		r.Ref.Table = i / 5
		r.Ref.Row = i % 5
	}
	inc := NewIncremental(labelScorer(), NewOptions())
	for start := 0; start < len(rows); start += 50 {
		if err := inc.Add(context.Background(), rows[start:start+50], nil); err != nil {
			t.Fatal(err)
		}
		c := inc.c
		if c.moved {
			t.Fatal("moved flag survived compact")
		}
		if len(c.ver) != len(c.clusters) {
			t.Fatalf("ver len %d, clusters len %d", len(c.ver), len(c.clusters))
		}
		wantIndex := make(map[string]map[int]bool)
		for ci, cl := range c.clusters {
			if len(cl.rows) == 0 {
				t.Fatalf("empty cluster %d survived compact", ci)
			}
			wantBlocks := make(map[string]bool)
			for _, r := range cl.rows {
				for _, b := range r.Blocks {
					wantBlocks[b] = true
					if wantIndex[b] == nil {
						wantIndex[b] = make(map[int]bool)
					}
					wantIndex[b][ci] = true
				}
			}
			if !reflect.DeepEqual(cl.blocks, wantBlocks) {
				t.Fatalf("cluster %d blocks drifted from membership", ci)
			}
		}
		if !reflect.DeepEqual(c.blockIndex, wantIndex) {
			t.Fatal("blockIndex drifted from live membership")
		}
		for p := range c.pairNoop {
			if p[0] >= len(c.clusters) || p[1] >= len(c.clusters) {
				t.Fatalf("pairNoop key %v out of range after compact", p)
			}
		}
		for ci := range c.splitNoop {
			if ci >= len(c.clusters) {
				t.Fatalf("splitNoop key %d out of range after compact", ci)
			}
		}
	}
}
