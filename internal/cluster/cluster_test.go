package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/agg"
	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// mkRow builds a test row from a label, table and mapped values.
func mkRow(table, row int, label string, values map[kb.PropertyID]dtype.Value) *Row {
	if values == nil {
		values = map[kb.PropertyID]dtype.Value{}
	}
	return &Row{
		Ref:       webtable.RowRef{Table: table, Row: row},
		Label:     label,
		NormLabel: strsim.Normalize(label),
		BOW:       strsim.BinaryTermVector(label),
		Values:    values,
		Implicit:  map[kb.PropertyID]ImplicitAttr{},
		Blocks:    []string{strsim.Normalize(label)},
	}
}

// labelScorer scores pairs purely by label similarity with threshold 0.8.
func labelScorer() *Scorer {
	return &Scorer{
		Metrics: []Metric{labelMetric{}},
		Agg:     &agg.WeightedAverage{Weights: []float64{1}, Threshold: 0.8},
	}
}

func TestMetricLabel(t *testing.T) {
	a := mkRow(0, 0, "Tom Brady", nil)
	b := mkRow(1, 0, "tom brady", nil)
	s, conf := (labelMetric{}).Compare(a, b)
	if s != 1 || conf != 1 {
		t.Errorf("LABEL = %v/%v", s, conf)
	}
}

func TestMetricBOW(t *testing.T) {
	a := mkRow(0, 0, "x", nil)
	a.BOW = map[string]float64{"qb": 1, "patriots": 1}
	b := mkRow(1, 0, "y", nil)
	b.BOW = map[string]float64{"qb": 1, "patriots": 1}
	s, _ := (bowMetric{}).Compare(a, b)
	if s < 0.99 {
		t.Errorf("identical BOW = %v", s)
	}
}

func TestMetricAttribute(t *testing.T) {
	m := attributeMetric{th: dtype.DefaultThresholds()}
	a := mkRow(0, 0, "x", map[kb.PropertyID]dtype.Value{
		"p1": dtype.NewNominal("QB"),
		"p2": dtype.NewQuantity(200),
	})
	b := mkRow(1, 0, "y", map[kb.PropertyID]dtype.Value{
		"p1": dtype.NewNominal("QB"),
		"p2": dtype.NewQuantity(201),
		"p3": dtype.NewText("ignored"),
	})
	s, conf := m.Compare(a, b)
	if s != 1 || conf != 2 {
		t.Errorf("ATTRIBUTE = %v conf %v, want 1.0 conf 2 (two overlapping pairs)", s, conf)
	}
	// No overlap: zero confidence.
	c := mkRow(2, 0, "z", map[kb.PropertyID]dtype.Value{"p9": dtype.NewText("v")})
	if _, conf := m.Compare(a, c); conf != 0 {
		t.Errorf("no-overlap confidence = %v", conf)
	}
}

func TestMetricImplicit(t *testing.T) {
	m := implicitMetric{th: dtype.DefaultThresholds()}
	a := mkRow(0, 0, "x", nil)
	a.Implicit = map[kb.PropertyID]ImplicitAttr{
		"dbo:team": {Value: dtype.NewRef("Patriots"), Score: 0.8},
	}
	b := mkRow(1, 0, "y", map[kb.PropertyID]dtype.Value{
		"dbo:team": dtype.NewRef("Patriots"),
	})
	s, conf := m.Compare(a, b)
	if s != 1 || conf <= 0 {
		t.Errorf("IMPLICIT_ATT = %v conf %v", s, conf)
	}
	// Conflicting implicit attributes score 0.
	c := mkRow(2, 0, "z", nil)
	c.Implicit = map[kb.PropertyID]ImplicitAttr{
		"dbo:team": {Value: dtype.NewRef("Raiders"), Score: 0.9},
	}
	s, _ = m.Compare(a, c)
	if s != 0 {
		t.Errorf("conflicting implicit = %v", s)
	}
}

func TestMetricSameTable(t *testing.T) {
	a := mkRow(5, 0, "x", nil)
	b := mkRow(5, 1, "y", nil)
	c := mkRow(6, 0, "z", nil)
	if s, _ := (sameTableMetric{}).Compare(a, b); s != 0 {
		t.Error("same-table rows should score 0")
	}
	if s, _ := (sameTableMetric{}).Compare(a, c); s != 1 {
		t.Error("cross-table rows should score 1")
	}
}

func TestMetricPrefix(t *testing.T) {
	if got := len(MetricPrefix(3)); got != 3 {
		t.Errorf("prefix 3 = %d", got)
	}
	if got := len(MetricPrefix(99)); got != 6 {
		t.Errorf("prefix clamps to 6, got %d", got)
	}
	names := []string{"LABEL", "BOW", "PHI", "ATTRIBUTE", "IMPLICIT_ATT", "SAME_TABLE"}
	for i, m := range MetricSet() {
		if m.Name() != names[i] {
			t.Errorf("metric %d = %s, want %s", i, m.Name(), names[i])
		}
	}
}

// mustCluster runs ClusterCtx under the test's context and fails the test
// on an error.
func mustCluster(tb testing.TB, rows []*Row, scorer *Scorer, opts Options) *Clustering {
	tb.Helper()
	cl, err := ClusterCtx(tb.Context(), rows, scorer, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// TestClusterCtxCancelled cancels a one-shot clustering mid-run: the torn
// clustering must not escape, only the context's error.
func TestClusterCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	var calls atomic.Int32
	s := &Scorer{
		Metrics: []Metric{cancelMetric{mu: new(sync.Mutex), calls: &calls, n: 3, cancel: cancel}},
		Agg:     &agg.WeightedAverage{Weights: []float64{1}, Threshold: 0.5},
	}
	var rows []*Row
	for i := 0; i < 20; i++ {
		rows = append(rows, mkRow(i, 0, "Tom Brady", nil))
	}
	cl, err := ClusterCtx(ctx, rows, s, Options{Workers: 1, BatchSize: 4, Blocking: true, KLj: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ClusterCtx = %v, want context.Canceled", err)
	}
	if cl != nil {
		t.Errorf("cancelled ClusterCtx returned a clustering of %d clusters", cl.NumClusters())
	}
}

func TestGreedyClustersSameLabels(t *testing.T) {
	rows := []*Row{
		mkRow(0, 0, "Tom Brady", nil),
		mkRow(1, 0, "Tom Brady", nil),
		mkRow(2, 0, "Jerry Rice", nil),
		mkRow(3, 0, "Tom Brady", nil),
		mkRow(4, 0, "Jerry Rice", nil),
	}
	cl := mustCluster(t, rows, labelScorer(), Options{Blocking: true, KLj: false, BatchSize: 1})
	if cl.NumClusters() != 2 {
		t.Fatalf("clusters = %d, want 2", cl.NumClusters())
	}
	if cl.Assign[rows[0].Ref] != cl.Assign[rows[1].Ref] {
		t.Error("identical labels should share a cluster")
	}
	if cl.Assign[rows[0].Ref] == cl.Assign[rows[2].Ref] {
		t.Error("different labels should not share a cluster")
	}
}

func TestGreedySingletons(t *testing.T) {
	rows := []*Row{
		mkRow(0, 0, "Alpha One", nil),
		mkRow(1, 0, "Beta Two", nil),
		mkRow(2, 0, "Gamma Three", nil),
	}
	cl := mustCluster(t, rows, labelScorer(), Options{Blocking: true, KLj: false, BatchSize: 8})
	if cl.NumClusters() != 3 {
		t.Errorf("distinct rows should form singletons: %d", cl.NumClusters())
	}
}

func TestKLjRepairsBatchErrors(t *testing.T) {
	// Large batch forces both "Tom Brady" rows to be processed in one
	// snapshot, creating two singleton clusters; KLj must merge them.
	rows := []*Row{
		mkRow(0, 0, "Tom Brady", nil),
		mkRow(1, 0, "Tom Brady", nil),
	}
	noKLj := mustCluster(t, rows, labelScorer(), Options{Blocking: true, KLj: false, BatchSize: 8})
	if noKLj.NumClusters() != 2 {
		t.Fatalf("batched greedy should have split the pair, got %d clusters", noKLj.NumClusters())
	}
	withKLj := mustCluster(t, rows, labelScorer(), Options{Blocking: true, KLj: true, BatchSize: 8, MaxKLjRounds: 3})
	if withKLj.NumClusters() != 1 {
		t.Errorf("KLj should merge the duplicate singletons: %d clusters", withKLj.NumClusters())
	}
}

func TestKLjSplitsNegativeRows(t *testing.T) {
	// Force a bad cluster via a scorer that changes its mind: use
	// SAME_TABLE-style conflict where two same-table rows ended up
	// together (always -1 for same table).
	s := &Scorer{
		Metrics: []Metric{sameTableMetric{}},
		Agg:     &agg.WeightedAverage{Weights: []float64{1}, Threshold: 0.5},
	}
	a := mkRow(7, 0, "x", nil)
	b := mkRow(7, 1, "x", nil)
	st := &clusterer{scorer: s, opts: Options{Blocking: true, MaxKLjRounds: 2}, blockIndex: map[string]map[int]bool{}}
	ci := st.newCluster(a)
	st.addToCluster(ci, b)
	st.cache = NewScoreCache(nil)
	st.cache.begin(s)
	st.klj(context.Background())
	res := st.result()
	if res.NumClusters() != 2 {
		t.Errorf("KLj should split same-table pair: %d clusters", res.NumClusters())
	}
}

func TestBlockingOffEquivalence(t *testing.T) {
	var rows []*Row
	for i := 0; i < 12; i++ {
		rows = append(rows, mkRow(i, 0, fmt.Sprintf("Entity %d", i%4), nil))
	}
	on := mustCluster(t, rows, labelScorer(), Options{Blocking: true, KLj: true, BatchSize: 1, MaxKLjRounds: 3})
	off := mustCluster(t, rows, labelScorer(), Options{Blocking: false, KLj: true, BatchSize: 1, MaxKLjRounds: 3})
	if on.NumClusters() != off.NumClusters() {
		t.Errorf("blocking changed the clustering: %d vs %d clusters",
			on.NumClusters(), off.NumClusters())
	}
}

func TestClusteringAssignConsistent(t *testing.T) {
	rows := []*Row{
		mkRow(0, 0, "A B C", nil),
		mkRow(1, 0, "A B C", nil),
		mkRow(2, 0, "X Y Z", nil),
	}
	cl := mustCluster(t, rows, labelScorer(), NewOptions())
	for id, members := range cl.Clusters {
		for _, r := range members {
			if cl.Assign[r.Ref] != id {
				t.Fatalf("Assign inconsistent for %v", r.Ref)
			}
		}
	}
	total := 0
	for _, m := range cl.Clusters {
		total += len(m)
	}
	if total != len(rows) {
		t.Errorf("clusters cover %d rows, want %d", total, len(rows))
	}
}

func TestBuilderOnSyntheticCorpus(t *testing.T) {
	w, corpus := testWorldCorpus()
	// Perfect mapping from provenance.
	mapping := make(map[int]map[int]kb.PropertyID)
	var tids []int
	for _, tb := range corpus.Tables {
		if tb.Truth == nil || tb.Truth.Class != kb.ClassGFPlayer {
			continue
		}
		tb.LabelCol = 0
		m := make(map[int]kb.PropertyID)
		for c, pid := range tb.Truth.ColProperty {
			if pid != "" {
				m[c] = pid
			}
		}
		mapping[tb.ID] = m
		tids = append(tids, tb.ID)
	}
	b := &Builder{KB: w.KB, Corpus: corpus, Class: kb.ClassGFPlayer, Mapping: mapping}
	rows := b.Build(tids)
	if len(rows) == 0 {
		t.Fatal("no rows built")
	}
	withValues, withBlocks := 0, 0
	for _, r := range rows {
		if r.NormLabel == "" {
			t.Fatal("row without label")
		}
		if len(r.Values) > 0 {
			withValues++
		}
		if len(r.Blocks) > 0 {
			withBlocks++
		}
	}
	if withValues == 0 {
		t.Error("no rows with mapped values")
	}
	if withBlocks != len(rows) {
		t.Errorf("all rows should have blocks: %d/%d", withBlocks, len(rows))
	}
}

func TestPhiModel(t *testing.T) {
	p := newPhiModel()
	// Labels a and b always co-occur; c appears alone.
	p.addTable(0, []string{"a", "b"})
	p.addTable(1, []string{"a", "b"})
	p.addTable(2, []string{"c", "d"})
	p.finalize()
	va := p.tableVector(0)
	if len(va) == 0 {
		t.Fatal("empty PHI vector for co-occurring labels")
	}
	vc := p.tableVector(2)
	sim := strsim.Cosine(va, vc)
	if sim != 0 {
		t.Errorf("unrelated tables PHI similarity = %v, want 0", sim)
	}
	vb := p.tableVector(1)
	if s := strsim.Cosine(va, vb); s < 0.99 {
		t.Errorf("identical tables PHI similarity = %v, want 1", s)
	}
}

func TestLearnScorerSeparates(t *testing.T) {
	var pairs []PairExample
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("Player %c", 'A'+i%8)
		pairs = append(pairs, PairExample{
			A: mkRow(2*i, 0, name, nil), B: mkRow(2*i+1, 0, name, nil), Match: true,
		})
		other := fmt.Sprintf("Player %c", 'A'+(i+1)%8)
		pairs = append(pairs, PairExample{
			A: mkRow(200+2*i, 0, name, nil), B: mkRow(201+2*i, 0, other, nil), Match: false,
		})
	}
	scorer, combined := LearnScorer(MetricPrefix(2), pairs, 1)
	if combined == nil {
		t.Fatal("nil combined model")
	}
	good := scorer.Pair(mkRow(900, 0, "Player A", nil), mkRow(901, 0, "Player A", nil))
	bad := scorer.Pair(mkRow(902, 0, "Player A", nil), mkRow(903, 0, "Player B", nil))
	if good <= 0 {
		t.Errorf("matching pair score = %v, want positive", good)
	}
	if bad >= good {
		t.Errorf("non-matching pair %v should score below matching %v", bad, good)
	}
}

func BenchmarkClusterGreedy(b *testing.B) {
	var rows []*Row
	for i := 0; i < 300; i++ {
		rows = append(rows, mkRow(i, 0, fmt.Sprintf("Entity %d", i%60), nil))
	}
	opts := Options{Blocking: true, KLj: false, BatchSize: 32}
	s := labelScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCluster(b, rows, s, opts)
	}
}

func BenchmarkClusterWithKLj(b *testing.B) {
	var rows []*Row
	for i := 0; i < 200; i++ {
		rows = append(rows, mkRow(i, 0, fmt.Sprintf("Entity %d", i%40), nil))
	}
	opts := NewOptions()
	s := labelScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCluster(b, rows, s, opts)
	}
}
