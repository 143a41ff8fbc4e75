package cluster

import (
	"repro/internal/agg"
	"repro/internal/dtype"
	"repro/internal/strsim"
)

// Scorer combines a metric set with an aggregator into the row similarity
// function used by the clustering algorithms: a normalized score in
// [-1, 1], positive meaning "same instance". Pair is safe for concurrent
// use (the greedy pass scores batches in parallel) and allocation-free:
// feature vectors cycle through a pool, which agg.Aggregator's contract
// (Score must not retain the slices) makes safe.
type Scorer struct {
	Metrics []Metric
	Agg     agg.Aggregator
}

// Features evaluates all metrics on a pair. The result is freshly
// allocated and may be retained (learning keeps features in Examples);
// the scoring hot path is Pair, which recycles its vectors instead.
func (s *Scorer) Features(a, b *Row) agg.Features {
	f := agg.Features{
		Scores: make([]float64, len(s.Metrics)),
		Confs:  make([]float64, len(s.Metrics)),
	}
	s.featuresInto(&f, a, b)
	return f
}

func (s *Scorer) featuresInto(f *agg.Features, a, b *Row) {
	for i, m := range s.Metrics {
		f.Scores[i], f.Confs[i] = m.Compare(a, b)
	}
}

// Pair returns the aggregated, normalized similarity of two rows.
func (s *Scorer) Pair(a, b *Row) float64 {
	f := agg.BorrowFeatures(len(s.Metrics))
	s.featuresInto(f, a, b)
	score := s.Agg.Score(*f)
	agg.ReturnFeatures(f)
	return score
}

// tableLevelMetric marks a Metric whose Compare output depends only on the
// two rows' tables (not on the individual rows). Such metrics can be
// memoized per table pair while the rows' table-level state is stable.
type tableLevelMetric interface {
	Metric
	// TableLevel is a marker; implementations need no behaviour.
	TableLevel()
}

// valueMetric is a Metric that compares fact values through
// dtype.Thresholds.Equal; compareMemo is Compare with the values' string
// similarities served from a memo (nil: no memo, exactly Compare).
type valueMetric interface {
	Metric
	compareMemo(a, b *Row, memo *metricMemo) (score, confidence float64)
}

// metricMemo caches metric work that recurs across row pairs:
//   - table-level metric outputs per (metric, tableA, tableB). PHI is the
//     motivating case: its cosine compares per-table vectors whose support
//     grows with the corpus vocabulary, yet every row pair drawn from the
//     same two tables repeats the identical computation;
//   - the Monge-Elkan similarity of each fact-value string pair compared by
//     the value metrics. Fact values recur across rows far more often than
//     they are distinct, and the similarity is a pure function of the two
//     strings.
//
// Every entry is the exact value it replaces. The table entries are valid
// only while the rows' TableVec stands, which ScoreCache guarantees by
// discarding its memos when the PHI generation moves. Not safe for
// concurrent use; the parallel greedy pass keeps one per worker.
type metricMemo struct {
	// tableLevel and value flag, per metric index, the table-level metrics
	// and the value metrics (nil entries elsewhere).
	tableLevel []bool
	value      []valueMetric
	tables     map[[3]int][2]float64
	text       map[[2]string]float64
}

// newMetricMemo returns an empty memo for the scorer's metric set.
func newMetricMemo(s *Scorer) *metricMemo {
	m := &metricMemo{
		tableLevel: make([]bool, len(s.Metrics)),
		value:      make([]valueMetric, len(s.Metrics)),
		tables:     make(map[[3]int][2]float64),
		text:       make(map[[2]string]float64),
	}
	for i, mt := range s.Metrics {
		if _, ok := mt.(tableLevelMetric); ok {
			m.tableLevel[i] = true
		}
		if vm, ok := mt.(valueMetric); ok {
			m.value[i] = vm
		}
	}
	return m
}

// equal is th.Equal(a, b) with the text similarity served from the memo;
// a nil memo computes it directly.
func (m *metricMemo) equal(th dtype.Thresholds, a, b dtype.Value) bool {
	if m == nil {
		return th.Equal(a, b)
	}
	return dtype.EqualWith(th, a, b, m.textSim)
}

// textSim is strsim.MongeElkanSymCached, memoized per unordered string
// pair: the symmetric similarity adds its two directed halves
// commutatively, so both argument orders yield the same float. Identical
// strings score exactly 1 (every token matches itself), so they skip the
// memo.
func (m *metricMemo) textSim(a, b string) float64 {
	if a == b {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	k := [2]string{a, b}
	if v, ok := m.text[k]; ok {
		return v
	}
	v := strsim.MongeElkanSymCached(a, b)
	m.text[k] = v
	return v
}

// pairMemo is Pair with table-level metric outputs and fact-value string
// similarities served from the memo. The returned score is bit-identical
// to Pair's: cached entries are the exact values they replace, and
// table-level metrics return the same floats for every row pair of the
// same two tables by definition.
func (s *Scorer) pairMemo(a, b *Row, memo *metricMemo) float64 {
	f := agg.BorrowFeatures(len(s.Metrics))
	for i, m := range s.Metrics {
		switch {
		case memo.tableLevel[i]:
			k := [3]int{i, a.Ref.Table, b.Ref.Table}
			v, ok := memo.tables[k]
			if !ok {
				v[0], v[1] = m.Compare(a, b)
				memo.tables[k] = v
			}
			f.Scores[i], f.Confs[i] = v[0], v[1]
		case memo.value[i] != nil:
			f.Scores[i], f.Confs[i] = memo.value[i].compareMemo(a, b, memo)
		default:
			f.Scores[i], f.Confs[i] = m.Compare(a, b)
		}
	}
	score := s.Agg.Score(*f)
	agg.ReturnFeatures(f)
	return score
}

// PairExample is a labeled row pair for learning the aggregators.
type PairExample struct {
	A, B  *Row
	Match bool
}

// BuildExamples converts labeled row pairs into aggregation examples by
// evaluating the metric set on each pair.
func BuildExamples(metrics []Metric, pairs []PairExample) []agg.Example {
	s := &Scorer{Metrics: metrics}
	out := make([]agg.Example, len(pairs))
	for i, p := range pairs {
		out[i] = agg.Example{F: s.Features(p.A, p.B), Match: p.Match}
	}
	return out
}

// LearnScorer learns the combined aggregator (weighted average + random
// forest) for a metric set from labeled pairs and returns the ready-to-use
// scorer together with the combined model (for importance reporting).
func LearnScorer(metrics []Metric, pairs []PairExample, seed int64) (*Scorer, *agg.Combined) {
	examples := BuildExamples(metrics, pairs)
	c := agg.LearnCombined(examples, len(metrics), seed)
	return &Scorer{Metrics: metrics, Agg: c}, c
}
