package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// blockTestRows builds rows over a shared narrow vocabulary with fuzzy
// variants, the regime blocking exists for.
func blockTestRows(rng *rand.Rand, n int) []*Row {
	word := func(ln int) string {
		b := make([]byte, ln)
		for i := range b {
			b[i] = byte('a' + rng.Intn(8))
		}
		return string(b)
	}
	base := make([]string, n/3+1)
	for i := range base {
		base[i] = fmt.Sprintf("%s %s", word(5+rng.Intn(4)), word(6+rng.Intn(4)))
	}
	rows := make([]*Row, 0, n)
	for i := 0; i < n; i++ {
		l := base[rng.Intn(len(base))]
		switch rng.Intn(3) {
		case 0: // exact duplicate
		case 1: // typo in one token
			cut := 1 + rng.Intn(len(l)-2)
			if l[cut] != ' ' {
				l = l[:cut] + l[cut+1:]
			}
		case 2: // extra qualifier token
			l = l + " " + word(4)
		}
		rows = append(rows, &Row{NormLabel: strsim.Normalize(l)})
	}
	return rows
}

// exactBlocks is the reference block assignment for one row label: an
// exact Search over everything bi has indexed, floored at blockScoreFloor
// of the best hit, plus the row's own label.
func exactBlocks(bi *BlockIndex, norm string, k int) []string {
	hits := bi.ix.Search(norm, k)
	var out []string
	for _, h := range hits {
		if h.Score < hits[0].Score*blockScoreFloor {
			break
		}
		out = append(out, bi.labels[h.Doc])
	}
	if !slices.Contains(out, norm) {
		out = append(out, norm)
	}
	return out
}

// TestBlockAssignLSHRecall compares LSH blocking against the exact
// reference over two persistent Assign waves on an adversarial narrow
// vocabulary: every row keeps its own-label block, the LSH path is
// deterministic, and its block sets cover at least 95% of the reference
// blocks.
func TestBlockAssignLSHRecall(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	rows := blockTestRows(rng, 240)
	assign := func() ([]*Row, [][]string) {
		rs := make([]*Row, len(rows))
		for i, r := range rows {
			rs[i] = &Row{NormLabel: r.NormLabel}
		}
		bi := NewBlockIndex()
		var ref [][]string
		for _, wave := range [][]*Row{rs[:len(rs)/2], rs[len(rs)/2:]} {
			bi.Assign(wave, 6)
			for _, r := range wave {
				ref = append(ref, exactBlocks(bi, r.NormLabel, 6))
			}
		}
		return rs, ref
	}

	lshRows, refBlocks := assign()
	lshRows2, _ := assign()
	total, hit := 0, 0
	for i := range rows {
		if !reflect.DeepEqual(lshRows[i].Blocks, lshRows2[i].Blocks) {
			t.Fatalf("row %d: LSH blocking not deterministic: %v vs %v", i, lshRows[i].Blocks, lshRows2[i].Blocks)
		}
		if !slices.Contains(lshRows[i].Blocks, rows[i].NormLabel) {
			t.Fatalf("row %d lost its own-label block", i)
		}
		for _, b := range refBlocks[i] {
			total++
			if slices.Contains(lshRows[i].Blocks, b) {
				hit++
			}
		}
	}
	if recall := float64(hit) / float64(total); recall < 0.95 {
		t.Fatalf("LSH block recall = %.3f over %d reference blocks, want >= 0.95", recall, total)
	}
}

// TestLSHEquivalenceOverScenarios holds blocking to per-call identity with
// the exact reference on the synthetic scenario corpus: for every
// evaluation class, the class's tables are built in four-table batches
// against one persistent BlockIndex (the engine's mode), and every row's
// Blocks must equal exactBlocks at the moment its batch was assigned.
// (internal/core's test of the same name holds KB candidate retrieval to
// its reference.)
func TestLSHEquivalenceOverScenarios(t *testing.T) {
	t.Parallel()
	w, corpus := testWorldCorpus()
	for _, class := range kb.EvalClasses() {
		// Private table copies: label-column detection writes to the
		// table, and the shared corpus is read by other tests.
		var tables []*webtable.Table
		for _, tb := range corpus.Tables {
			if tb.Truth != nil && tb.Truth.Class == class {
				cp := *tb
				cp.LabelCol = match.DetectLabelColumn(&cp)
				tables = append(tables, &cp)
			}
		}
		b := &Builder{KB: w.KB, Corpus: webtable.NewCorpus(tables), Class: class, Blocks: NewBlockIndex()}
		rows, differ := 0, 0
		for lo := 0; lo < len(tables); lo += 4 {
			var batch []int
			for tid := lo; tid < min(lo+4, len(tables)); tid++ {
				batch = append(batch, tid)
			}
			for _, r := range b.Build(batch) {
				rows++
				if want := exactBlocks(b.Blocks, r.NormLabel, 6); !reflect.DeepEqual(r.Blocks, want) {
					differ++
					t.Errorf("%s: row %q blocks %v, exact reference %v", class, r.NormLabel, r.Blocks, want)
				}
			}
		}
		if rows == 0 {
			t.Errorf("%s: no rows built", class)
		}
		t.Logf("%s: %d rows, %d with differing blocks", class, rows, differ)
	}
}

// TestBlockIndexCloneEquivalent proves a cloned index (postings and LSH
// buckets copied) assigns the same blocks as the original.
func TestBlockIndexCloneEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seedRows := blockTestRows(rng, 90)
	bi := NewBlockIndex()
	bi.Assign(seedRows, 6)
	cl := bi.Clone()

	probe := blockTestRows(rng, 40)
	mk := func(src []*Row) []*Row {
		rs := make([]*Row, len(src))
		for i, r := range src {
			rs[i] = &Row{NormLabel: r.NormLabel}
		}
		return rs
	}
	a, b := mk(probe), mk(probe)
	bi.Assign(a, 6)
	cl.Assign(b, 6)
	for i := range probe {
		if !reflect.DeepEqual(a[i].Blocks, b[i].Blocks) {
			t.Fatalf("row %d: original blocks %v, clone blocks %v", i, a[i].Blocks, b[i].Blocks)
		}
	}
	// And the clone must be isolated: new labels added to it do not appear
	// in the original.
	extra := []*Row{{NormLabel: "zzzz qqqq ffff"}}
	cl.Assign(extra, 6)
	if _, leaked := bi.labelDoc["zzzz qqqq ffff"]; leaked {
		t.Fatal("clone Assign leaked a label into the original")
	}
}
