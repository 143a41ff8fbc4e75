package cluster

import (
	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// Metric is one row similarity metric. Compare returns a similarity score
// in [0, 1] and a confidence; confidence 0 means the metric has no signal
// for this pair (aggregators may then ignore or down-weight it). Compare
// must be symmetric: (a, b) and (b, a) give bitwise equal results.
type Metric interface {
	Name() string
	Compare(a, b *Row) (score, confidence float64)
}

// MetricSet returns the paper's six row similarity metrics in ablation
// order: LABEL, BOW, PHI, ATTRIBUTE, IMPLICIT_ATT, SAME_TABLE.
func MetricSet() []Metric {
	return []Metric{
		labelMetric{}, bowMetric{}, phiMetric{},
		attributeMetric{th: dtype.DefaultThresholds()},
		implicitMetric{th: dtype.DefaultThresholds()},
		sameTableMetric{},
	}
}

// MetricPrefix returns the first n metrics of MetricSet, supporting the
// ablation study of Table 7.
func MetricPrefix(n int) []Metric {
	set := MetricSet()
	if n > len(set) {
		n = len(set)
	}
	return set[:n]
}

// LABEL: Monge-Elkan similarity (Levenshtein inner) of the row labels.
// Builder-prepared rows compare their interned token forms (no
// re-tokenization, memoized token pairs); hand-built rows fall back to the
// string kernel, which computes exactly the same values.
type labelMetric struct{}

func (labelMetric) Name() string { return "LABEL" }

func (labelMetric) Compare(a, b *Row) (float64, float64) {
	if a.Prep != nil && b.Prep != nil {
		return a.Prep.MongeElkanSym(b.Prep), 1
	}
	return strsim.MongeElkanSym(a.NormLabel, b.NormLabel), 1
}

// BOW: cosine similarity of the binary term vectors over all row cells.
// Builder-prepared rows carry their vector in sorted sparse form with the
// norm cached, so the cosine is a merge join with no hashing; the values
// are exactly the map-based ones (binary weights make every accumulation
// order-independent).
type bowMetric struct{}

func (bowMetric) Name() string { return "BOW" }

func (bowMetric) Compare(a, b *Row) (float64, float64) {
	if a.bowPrepared && b.bowPrepared {
		return strsim.CosineSparse(a.bowVec, b.bowVec), 1
	}
	return strsim.Cosine(a.BOW, b.BOW), 1
}

// PHI: cosine similarity of the rows' table PHI vectors — a table-level
// signal of whether the two tables describe semantically related rows.
type phiMetric struct{}

func (phiMetric) Name() string { return "PHI" }

// TableLevel marks PHI as memoizable per table pair: Compare reads only
// the rows' TableVec, which all rows of a table share.
func (phiMetric) TableLevel() {}

func (phiMetric) Compare(a, b *Row) (float64, float64) {
	if a.TableVec.Len() == 0 || b.TableVec.Len() == 0 {
		return 0, 0
	}
	return strsim.CosineSparse(a.TableVec, b.TableVec), 1
}

// ATTRIBUTE: data-type-specific equality over overlapping mapped values;
// the confidence is the number of compared pairs.
type attributeMetric struct {
	th dtype.Thresholds
}

func (attributeMetric) Name() string { return "ATTRIBUTE" }

func (m attributeMetric) Compare(a, b *Row) (float64, float64) {
	return m.compareMemo(a, b, nil)
}

func (m attributeMetric) compareMemo(a, b *Row, memo *metricMemo) (float64, float64) {
	pairs, equal := 0, 0
	for pid, va := range a.Values {
		vb, ok := b.Values[pid]
		if !ok {
			continue
		}
		pairs++
		if memo.equal(m.th, va, vb) {
			equal++
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return float64(equal) / float64(pairs), float64(pairs)
}

// IMPLICIT_ATT: compares the implicit attributes of one row's table with
// overlapping implicit attributes and column attributes of the other row,
// in both directions. The score is a ratio of integer counts; the
// confidence sums floats, so the two directions run in a canonical order
// (the row with the smaller Ref first) and Compare(a, b) and Compare(b, a)
// return identical floats, as the Scorer's symmetry contract requires.
type implicitMetric struct {
	th dtype.Thresholds
}

func (implicitMetric) Name() string { return "IMPLICIT_ATT" }

func (m implicitMetric) Compare(a, b *Row) (float64, float64) {
	return m.compareMemo(a, b, nil)
}

func (m implicitMetric) compareMemo(a, b *Row, memo *metricMemo) (float64, float64) {
	simSum, confSum := 0.0, 0.0
	pairs := 0
	direction := func(x, y *Row) {
		// Fixed property order: confSum accumulates floats, so map
		// iteration order must not leak into the score. Builder-prepared
		// rows carry the order precomputed per table.
		order := x.implicitOrder
		if order == nil && len(x.Implicit) > 0 {
			order = kb.SortedPropertyIDs(x.Implicit)
		}
		for _, pid := range order {
			ia := x.Implicit[pid]
			// Implicit vs the other table's implicit attribute.
			if ib, ok := y.Implicit[pid]; ok {
				pairs++
				confSum += ia.Score
				if memo.equal(m.th, ia.Value, ib.Value) {
					simSum++
				}
			}
			// Implicit vs the other row's explicit column value.
			if vb, ok := y.Values[pid]; ok {
				pairs++
				confSum += ia.Score
				if memo.equal(m.th, ia.Value, vb) {
					simSum++
				}
			}
		}
	}
	if refLess(b.Ref, a.Ref) {
		a, b = b, a
	}
	direction(a, b)
	direction(b, a)
	if pairs == 0 {
		return 0, 0
	}
	return simSum / float64(pairs), confSum
}

// SAME_TABLE: rows of one table usually describe different entities: 0.0
// for same-table pairs, 1.0 otherwise.
type sameTableMetric struct{}

func (sameTableMetric) Name() string { return "SAME_TABLE" }

func (sameTableMetric) Compare(a, b *Row) (float64, float64) {
	if a.Ref.Table == b.Ref.Table {
		return 0, 1
	}
	return 1, 1
}

// refLess orders row references by table, then row: the canonical order of
// a row pair.
func refLess(a, b webtable.RowRef) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Row < b.Row
}
