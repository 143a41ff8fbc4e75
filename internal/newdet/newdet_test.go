package newdet

import (
	"testing"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/strsim"
)

// testKB builds a small KB with two similar players and one settlement.
func testKB() *kb.KB {
	k := kb.New()
	k.AddInstance(&kb.Instance{
		Class:    kb.ClassGFPlayer,
		Labels:   []string{"Mark Stone"},
		Abstract: "Mark Stone is a football player.",
		Facts: map[kb.PropertyID]dtype.Value{
			"dbo:position": dtype.NewNominal("QB"),
			"dbo:team":     dtype.NewRef("Patriots"),
			"dbo:weight":   dtype.NewQuantity(220),
		},
		Popularity: 90,
	})
	k.AddInstance(&kb.Instance{
		Class:    kb.ClassGFPlayer,
		Labels:   []string{"Mark Stone"},
		Abstract: "Mark Stone is a linebacker.",
		Facts: map[kb.PropertyID]dtype.Value{
			"dbo:position": dtype.NewNominal("LB"),
			"dbo:team":     dtype.NewRef("Raiders"),
		},
		Popularity: 5,
	})
	k.AddInstance(&kb.Instance{
		Class:      kb.ClassSettlement,
		Labels:     []string{"Stonefield"},
		Facts:      map[kb.PropertyID]dtype.Value{},
		Popularity: 10,
	})
	return k
}

// mkEntity builds a player entity.
func mkEntity(label string, facts map[kb.PropertyID]dtype.Value) *fusion.Entity {
	if facts == nil {
		facts = map[kb.PropertyID]dtype.Value{}
	}
	return &fusion.Entity{
		Class:    kb.ClassGFPlayer,
		Labels:   []string{label},
		Facts:    facts,
		BOW:      strsim.BinaryTermVector(label),
		Implicit: map[kb.PropertyID]cluster.ImplicitAttr{},
	}
}

func uniformAgg(n int) agg.Aggregator {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return &agg.WeightedAverage{Weights: w, Threshold: 0.5}
}

func TestMetricLabel(t *testing.T) {
	k := testKB()
	env := &Env{KB: k, Thresholds: dtype.DefaultThresholds()}
	e := mkEntity("Mark Stone", nil)
	s, _ := (labelMetric{}).Compare(env, e, 0)
	if s != 1 {
		t.Errorf("identical labels = %v", s)
	}
	s, _ = (labelMetric{}).Compare(env, e, 2)
	if s >= 1 {
		t.Errorf("different labels = %v", s)
	}
}

func TestMetricType(t *testing.T) {
	k := testKB()
	env := &Env{KB: k, Thresholds: dtype.DefaultThresholds()}
	e := mkEntity("X", nil)
	sPlayer, _ := (typeMetric{}).Compare(env, e, 0)
	sSettle, _ := (typeMetric{}).Compare(env, e, 2)
	if sPlayer != 1 {
		t.Errorf("same class TYPE = %v, want 1", sPlayer)
	}
	if sSettle != 0 {
		t.Errorf("unrelated class TYPE = %v, want 0", sSettle)
	}
}

func TestMetricAttribute(t *testing.T) {
	k := testKB()
	env := &Env{KB: k, Thresholds: dtype.DefaultThresholds()}
	e := mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
		"dbo:position": dtype.NewNominal("QB"),
		"dbo:team":     dtype.NewRef("Patriots"),
	})
	s, conf := (attributeMetric{}).Compare(env, e, 0)
	if s != 1 || conf != 2 {
		t.Errorf("ATTRIBUTE vs matching instance = %v/%v", s, conf)
	}
	s, _ = (attributeMetric{}).Compare(env, e, 1)
	if s != 0 {
		t.Errorf("ATTRIBUTE vs conflicting instance = %v", s)
	}
	// No overlapping properties: zero confidence.
	empty := mkEntity("Mark Stone", nil)
	if _, conf := (attributeMetric{}).Compare(env, empty, 0); conf != 0 {
		t.Errorf("no overlap confidence = %v", conf)
	}
}

func TestMetricImplicit(t *testing.T) {
	k := testKB()
	env := &Env{KB: k, Thresholds: dtype.DefaultThresholds()}
	e := mkEntity("Mark Stone", nil)
	e.Implicit = map[kb.PropertyID]cluster.ImplicitAttr{
		"dbo:team": {Value: dtype.NewRef("Patriots"), Score: 0.7},
	}
	s, conf := (implicitMetric{}).Compare(env, e, 0)
	if s != 1 || conf != 0.7 {
		t.Errorf("IMPLICIT_ATT = %v/%v", s, conf)
	}
	s, _ = (implicitMetric{}).Compare(env, e, 1)
	if s != 0 {
		t.Errorf("conflicting implicit = %v", s)
	}
}

func TestMetricPopularity(t *testing.T) {
	k := testKB()
	rank := BuildPopRank(k, []kb.InstanceID{0, 1})
	if rank[0] != 1 || rank[1] != 0.5 {
		t.Errorf("pop rank = %v", rank)
	}
	env := &Env{KB: k, Thresholds: dtype.DefaultThresholds(), PopRank: rank}
	e := mkEntity("Mark Stone", nil)
	s0, _ := (popularityMetric{}).Compare(env, e, 0)
	s1, _ := (popularityMetric{}).Compare(env, e, 1)
	if s0 <= s1 {
		t.Errorf("more popular instance should rank higher: %v vs %v", s0, s1)
	}
	// Single candidate scores 1.
	solo := BuildPopRank(k, []kb.InstanceID{1})
	if solo[1] != 1 {
		t.Errorf("single candidate = %v, want 1", solo[1])
	}
	// Missing env: zero confidence.
	if _, conf := (popularityMetric{}).Compare(&Env{KB: k}, e, 0); conf != 0 {
		t.Error("popularity without rank should have no signal")
	}
}

func TestDetectorMatchesExisting(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	e := mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
		"dbo:position": dtype.NewNominal("QB"),
		"dbo:team":     dtype.NewRef("Patriots"),
		"dbo:weight":   dtype.NewQuantity(221),
	})
	res := d.Detect(e)
	if !res.Matched || res.Instance != 0 {
		t.Errorf("Detect = %+v, want match to instance 0", res)
	}
}

func TestDetectorDisambiguatesHomonyms(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	// Same name as both instances, but facts agree with the linebacker.
	e := mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
		"dbo:position": dtype.NewNominal("LB"),
		"dbo:team":     dtype.NewRef("Raiders"),
	})
	best, _ := d.BestCandidate(e)
	if best != 1 {
		t.Errorf("best candidate = %v, want the linebacker (1)", best)
	}
}

func TestDetectorNewWithoutCandidates(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	e := mkEntity("Zebulon Quixote", nil)
	res := d.Detect(e)
	if !res.IsNew {
		t.Errorf("unknown label should be new: %+v", res)
	}
	if res.BestScore != -1 {
		t.Errorf("no-candidate BestScore = %v, want -1", res.BestScore)
	}
}

func TestDetectorAbstains(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	d.NewThreshold = -0.9
	d.ExistThreshold = 0.9
	// A weakly similar entity lands between thresholds.
	e := mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
		"dbo:position": dtype.NewNominal("K"),
		"dbo:team":     dtype.NewRef("Jets"),
	})
	res := d.Detect(e)
	if res.IsNew || res.Matched {
		t.Errorf("expected abstention, got %+v (score %v)", res, res.BestScore)
	}
}

func TestLearnAggregatorAndThresholds(t *testing.T) {
	k := testKB()
	// Labeled examples: entities matching instance 0, instance 1, and new.
	var examples []Example
	for i := 0; i < 6; i++ {
		examples = append(examples,
			Example{Entity: mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
				"dbo:position": dtype.NewNominal("QB"),
				"dbo:team":     dtype.NewRef("Patriots"),
			}), Instance: 0},
			Example{Entity: mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
				"dbo:position": dtype.NewNominal("LB"),
				"dbo:team":     dtype.NewRef("Raiders"),
			}), Instance: 1},
			Example{Entity: mkEntity("Mark Stoney", map[kb.PropertyID]dtype.Value{
				"dbo:position": dtype.NewNominal("WR"),
				"dbo:team":     dtype.NewRef("Bills"),
			}), IsNew: true},
		)
	}
	metrics := MetricSet()
	combined, pairs := LearnAggregator(k, metrics, examples, 1)
	if combined == nil || len(pairs) == 0 {
		t.Fatal("no aggregator learned")
	}
	d := LearnThresholds(k, metrics, combined, examples, 1)
	if d.ExistThreshold < d.NewThreshold {
		t.Errorf("thresholds out of order: %v > %v", d.NewThreshold, d.ExistThreshold)
	}
	correct := 0
	for _, ex := range examples {
		res := d.Detect(ex.Entity)
		if ex.IsNew && res.IsNew {
			correct++
		}
		if !ex.IsNew && res.Matched && res.Instance == ex.Instance {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(examples)); acc < 0.8 {
		t.Errorf("learned detector accuracy = %v", acc)
	}
}

func TestMetricPrefix(t *testing.T) {
	if len(MetricPrefix(2)) != 2 || len(MetricPrefix(10)) != 6 {
		t.Error("prefix lengths")
	}
	names := []string{"LABEL", "TYPE", "BOW", "ATTRIBUTE", "IMPLICIT_ATT", "POPULARITY"}
	for i, m := range MetricSet() {
		if m.Name() != names[i] {
			t.Errorf("metric %d = %s, want %s", i, m.Name(), names[i])
		}
	}
}

func BenchmarkDetect(b *testing.B) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	e := mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{
		"dbo:position": dtype.NewNominal("QB"),
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect(e)
	}
}

func TestCandidatesDedupAcrossLabels(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	// Two labels that retrieve the same instances: candidates must be
	// unique.
	e := mkEntity("Mark Stone", nil)
	e.Labels = []string{"Mark Stone", "mark stone"}
	cands := d.Candidates(e)
	seen := map[kb.InstanceID]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %v", c)
		}
		seen[c] = true
	}
	if len(cands) != 2 {
		t.Errorf("candidates = %v, want both Mark Stones", cands)
	}
}

func TestDetectorClassRestriction(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(6))
	// A settlement-class entity must not receive player candidates.
	e := mkEntity("Mark Stone", nil)
	e.Class = kb.ClassSettlement
	for _, c := range d.Candidates(e) {
		inst := k.Instance(c)
		if inst.Class == kb.ClassGFPlayer {
			t.Errorf("player instance %v offered to settlement entity", c)
		}
	}
}

func TestBuildPopRankDeterministicTies(t *testing.T) {
	k := kb.New()
	a := k.AddInstance(&kb.Instance{Class: kb.ClassSong, Labels: []string{"X"}, Popularity: 5})
	b := k.AddInstance(&kb.Instance{Class: kb.ClassSong, Labels: []string{"Y"}, Popularity: 5})
	r1 := BuildPopRank(k, []kb.InstanceID{b, a})
	r2 := BuildPopRank(k, []kb.InstanceID{a, b})
	if r1[a] != r2[a] || r1[b] != r2[b] {
		t.Error("tie ranking depends on input order")
	}
	if r1[a] != 1 { // lower instance ID wins the tie
		t.Errorf("tie winner rank = %v", r1[a])
	}
}
