// Package cluster implements the row clustering step of the pipeline
// (§3.2): six row similarity metrics (LABEL, BOW, PHI, ATTRIBUTE,
// IMPLICIT_ATT, SAME_TABLE), three score aggregation strategies (learned
// weighted average, random forest regression, and their combination),
// label-based blocking, a parallelized greedy correlation clustering, and a
// Kernighan-Lin-with-joins (KLj) refinement.
package cluster

import (
	"sort"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// Row is one web table row prepared for clustering: its label, bag of
// words, schema-mapped values, and table-level implicit attributes.
type Row struct {
	Ref       webtable.RowRef
	Label     string
	NormLabel string
	// BOW is the binary term vector over all cells of the row.
	BOW map[string]float64
	// Values holds the row's cell values mapped to KB properties via the
	// attribute-to-property correspondences.
	Values map[kb.PropertyID]dtype.Value
	// Implicit holds the implicit property-value combinations of the
	// row's table with their confidence scores.
	Implicit map[kb.PropertyID]ImplicitAttr
	// TableVec is the table's PHI label-correlation vector, sorted by key
	// so the PHI metric's accumulation order is fixed across runs.
	TableVec strsim.SparseVec
	// Blocks are the normalized label blocks assigned by the blocker.
	Blocks []string
	// Prep is the prepared (tokenized and interned) form of NormLabel,
	// set by Builder.Build so the LABEL metric never re-tokenizes. Nil
	// for hand-built rows; the metrics fall back to the string kernels.
	Prep *strsim.PreparedLabel
	// bowVec is BOW in sorted sparse form with its norm cached, set with
	// bowPrepared by Builder.Build; the BOW metric then runs an
	// allocation-free merge join instead of hashing map keys per pair.
	bowVec      strsim.SparseVec
	bowPrepared bool
	// implicitOrder is kb.SortedPropertyIDs(Implicit), computed once per
	// table (rows of a table share the Implicit map) so the IMPLICIT_ATT
	// metric does not sort property IDs on every pair comparison.
	implicitOrder []kb.PropertyID
}

// ImplicitAttr is one implicit property-value combination derived for a
// table, with the fraction of rows supporting it as its confidence.
type ImplicitAttr struct {
	Value dtype.Value
	Score float64
}

// Row preparation constants.
const (
	// implicitThreshold is the minimum fraction of a table's rows that
	// must support an implicit property-value combination for it to be
	// kept.
	implicitThreshold = 0.5
	// implicitCandidates is the number of KB candidates consulted per row
	// label when deriving implicit attributes.
	implicitCandidates = 5
	// blockK is the number of similar labels retrieved per row during
	// blocking.
	blockK = 6
)

// Builder prepares Rows for a class: it extracts labels, bags of words and
// mapped values, derives implicit table attributes from the knowledge base,
// computes PHI table vectors, and assigns blocks.
type Builder struct {
	KB     *kb.KB
	Corpus *webtable.Corpus
	Class  kb.ClassID
	// Mapping gives the attribute-to-property correspondences per table:
	// Mapping[tableID][col] = property.
	Mapping map[int]map[int]kb.PropertyID
	// Blocks, when set, persists the blocking label index across Build
	// calls so later batches block against every label seen so far (the
	// incremental engine's mode). Nil builds a fresh per-call index, the
	// one-shot pipeline behavior.
	Blocks *BlockIndex
	// Phi, when set, persists the PHI statistics across Build calls: each
	// Build extends them with its tables and, when that changed them,
	// re-finalizes over everything seen so far. Nil keeps the statistics
	// local to the call.
	Phi *PhiModel
}

// Build prepares the rows of the given tables (identified by table ID).
func (b *Builder) Build(tableIDs []int) []*Row {
	pm := b.Phi
	if pm == nil {
		pm = NewPhiModel()
	}
	phi := pm.m
	var rows []*Row
	for _, tid := range tableIDs {
		t := b.Corpus.Table(tid)
		if t == nil || t.LabelCol < 0 {
			continue
		}
		implicit := b.implicitAttrs(t)
		implicitOrder := kb.SortedPropertyIDs(implicit)
		var tableLabels []string
		for r := 0; r < t.NumRows(); r++ {
			label := t.RowLabel(r)
			norm := strsim.Normalize(label)
			if norm == "" {
				continue
			}
			tableLabels = append(tableLabels, norm)
			bow := rowBOW(t, r)
			row := &Row{
				Ref:           webtable.RowRef{Table: tid, Row: r},
				Label:         label,
				NormLabel:     norm,
				BOW:           bow,
				Implicit:      implicit,
				Prep:          strsim.PrepareCached(norm),
				bowVec:        strsim.ToSparse(bow),
				bowPrepared:   true,
				implicitOrder: implicitOrder,
			}
			if m := b.Mapping[tid]; m != nil {
				row.Values = extractValues(b.KB, b.Class, t, r, m)
			} else {
				row.Values = map[kb.PropertyID]dtype.Value{}
			}
			rows = append(rows, row)
		}
		phi.addTable(tid, tableLabels)
	}
	phi.finalize()
	// One sorted PHI vector per table, shared by all of its rows.
	assignVectors(phi, rows)
	bi := b.Blocks
	if bi == nil {
		bi = NewBlockIndex()
	}
	bi.Assign(rows, blockK)
	return rows
}

// rowBOW builds the binary term vector over all cells of a row.
func rowBOW(t *webtable.Table, row int) map[string]float64 {
	v := make(map[string]float64)
	for c := 0; c < t.NumCols(); c++ {
		for _, tok := range strsim.Tokens(t.Cell(row, c)) {
			v[tok] = 1
		}
	}
	return v
}

// extractValues parses the mapped cells of a row into typed values.
// Columns are visited in ascending order so that when two columns map to
// the same property, the winner is deterministic.
func extractValues(k *kb.KB, class kb.ClassID, t *webtable.Table, row int, mapping map[int]kb.PropertyID) map[kb.PropertyID]dtype.Value {
	out := make(map[kb.PropertyID]dtype.Value)
	for _, col := range sortedCols(mapping) {
		pid := mapping[col]
		prop, ok := k.Property(class, pid)
		if !ok {
			continue
		}
		if v, ok := dtype.Parse(t.Cell(row, col), prop.Kind); ok {
			out[pid] = v
		}
	}
	return out
}

// sortedCols returns the mapping's column indices in ascending order.
func sortedCols(mapping map[int]kb.PropertyID) []int {
	cols := make([]int, 0, len(mapping))
	for c := range mapping {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols
}

// implicitAttrs derives the implicit property-value combinations of a table
// (§3.2, IMPLICIT_ATT): row labels retrieve candidate instances; every
// property-value combination of any candidate is scored by the fraction of
// rows having it; combinations held by at least half the rows are kept.
func (b *Builder) implicitAttrs(t *webtable.Table) map[kb.PropertyID]ImplicitAttr {
	type pv struct {
		pid kb.PropertyID
		key string
	}
	support := make(map[pv]int)
	values := make(map[pv]dtype.Value)
	// reps records, per property, the group-representative keys in
	// first-seen order so that near-equal grouping is deterministic.
	reps := make(map[kb.PropertyID][]pv)
	n := 0
	th := dtype.DefaultThresholds()
	for r := 0; r < t.NumRows(); r++ {
		label := t.RowLabel(r)
		if label == "" {
			continue
		}
		n++
		cands := b.KB.Candidates(label, kb.CandidateOpts{K: implicitCandidates, Class: b.Class})
		// Deduplicate combinations across this row's candidates so one
		// row contributes at most one unit of support per combination.
		seen := make(map[pv]bool)
		for _, iid := range cands {
			b.KB.ForEachFact(iid, func(pid kb.PropertyID, v dtype.Value) {
				key := pv{pid, v.String()}
				if seen[key] {
					return
				}
				// Group near-equal values under the earliest-seen
				// representative key.
				for _, existing := range reps[pid] {
					if th.Equal(values[existing], v) {
						key = existing
						break
					}
				}
				if seen[key] {
					return
				}
				seen[key] = true
				support[key]++
				if _, ok := values[key]; !ok {
					values[key] = v
					reps[pid] = append(reps[pid], key)
				}
			})
		}
	}
	out := make(map[kb.PropertyID]ImplicitAttr)
	if n == 0 {
		return out
	}
	// Visit combinations in deterministic order so equal-support ties
	// resolve identically across runs.
	keys := make([]pv, 0, len(support))
	for key := range support {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].key < keys[j].key
	})
	for _, key := range keys {
		score := float64(support[key]) / float64(n)
		if score < implicitThreshold {
			continue
		}
		// Keep the best-supported combination per property.
		if cur, ok := out[key.pid]; !ok || score > cur.Score {
			out[key.pid] = ImplicitAttr{Value: values[key], Score: score}
		}
	}
	return out
}
