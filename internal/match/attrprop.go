package match

import (
	"sort"

	"repro/internal/kb"
	"repro/internal/ml"
	"repro/internal/webtable"
)

// Model holds the learned attribute-to-property matching parameters for one
// class: matcher weights (aggregated by weighted average) and per-property
// score thresholds.
type Model struct {
	Class kb.ClassID
	// MatcherNames records the matcher order the weights refer to.
	MatcherNames []string
	// Weights is the learned weight per matcher (sums to 1).
	Weights []float64
	// PropThresholds maps each property to its learned acceptance
	// threshold; properties absent from the map use DefaultThreshold.
	PropThresholds map[kb.PropertyID]float64
	// DefaultThreshold applies to properties without a learned threshold.
	DefaultThreshold float64
}

// DefaultModel returns an unlearned model with uniform weights over the
// given matchers and a moderate default threshold.
func DefaultModel(class kb.ClassID, matchers []Matcher) *Model {
	m := &Model{
		Class:            class,
		PropThresholds:   make(map[kb.PropertyID]float64),
		DefaultThreshold: 0.5,
	}
	for _, mt := range matchers {
		m.MatcherNames = append(m.MatcherNames, mt.Name())
		m.Weights = append(m.Weights, 1/float64(len(matchers)))
	}
	return m
}

// Score aggregates the matcher scores for (table, col, prop) by weighted
// average.
func (m *Model) Score(ctx *Context, matchers []Matcher, t *webtable.Table, col int, prop kb.Property) float64 {
	var s float64
	for i, mt := range matchers {
		s += m.Weights[i] * mt.Score(ctx, t, col, prop)
	}
	return s
}

func (m *Model) threshold(pid kb.PropertyID) float64 {
	if th, ok := m.PropThresholds[pid]; ok {
		return th
	}
	return m.DefaultThreshold
}

// Correspondence is one matched column with its aggregated score.
type Correspondence struct {
	Property kb.PropertyID
	Score    float64
}

// MatchAttributes matches every non-label column of the table against the
// candidate properties of the table's class. A column is matched to the
// property with the highest aggregated score, provided that score exceeds
// the property's threshold. The result maps column index to property ID.
func MatchAttributes(ctx *Context, m *Model, matchers []Matcher, t *webtable.Table) map[int]kb.PropertyID {
	scored := MatchAttributesScored(ctx, m, matchers, t)
	out := make(map[int]kb.PropertyID, len(scored))
	for c, corr := range scored {
		out[c] = corr.Property
	}
	return out
}

// MatchAttributesScored is MatchAttributes but retains the aggregated
// matching score per column (used by the MATCHING fusion scoring).
func MatchAttributesScored(ctx *Context, m *Model, matchers []Matcher, t *webtable.Table) map[int]Correspondence {
	if t.ColKinds == nil {
		DetectColumnKinds(t)
	}
	out := make(map[int]Correspondence)
	schema := ctx.KB.Schema(ctx.Class)
	for c := 0; c < t.NumCols(); c++ {
		if c == t.LabelCol {
			continue
		}
		bestProp := kb.PropertyID("")
		bestScore := 0.0
		for _, prop := range schema {
			if !typeCompatible(t.ColKinds[c], prop.Kind) {
				continue
			}
			s := m.Score(ctx, matchers, t, c, prop)
			if s > bestScore {
				bestScore, bestProp = s, prop.ID
			}
		}
		if bestProp != "" && bestScore >= m.threshold(bestProp) {
			out[c] = Correspondence{Property: bestProp, Score: bestScore}
		}
	}
	return out
}

// Example is one labeled attribute for learning: a (table, column) with its
// correct property ("" when the column maps to no property).
type Example struct {
	Table *webtable.Table
	Col   int
	Want  kb.PropertyID
}

// Learn fits matcher weights (genetic algorithm, maximizing F1 on the
// learning set) and per-property thresholds for one class.
func Learn(ctx *Context, matchers []Matcher, class kb.ClassID, examples []Example, seed int64) *Model {
	model := DefaultModel(class, matchers)
	if len(examples) == 0 {
		return model
	}
	ctx2 := *ctx
	ctx2.Class = class

	// Precompute matcher scores per (example, property) once; the GA then
	// only re-aggregates.
	schema := ctx.KB.Schema(class)
	type propScores struct {
		pid kb.PropertyID
		row []float64 // per matcher
	}
	type scored struct {
		want   kb.PropertyID
		scores []propScores // candidate properties in schema order
	}
	data := make([]scored, 0, len(examples))
	for _, ex := range examples {
		if ex.Table.ColKinds == nil {
			DetectColumnKinds(ex.Table)
		}
		sc := scored{want: ex.Want}
		for _, prop := range schema {
			if !typeCompatible(ex.Table.ColKinds[ex.Col], prop.Kind) {
				continue
			}
			row := make([]float64, len(matchers))
			for i, mt := range matchers {
				row[i] = mt.Score(&ctx2, ex.Table, ex.Col, prop)
			}
			sc.scores = append(sc.scores, propScores{pid: prop.ID, row: row})
		}
		data = append(data, sc)
	}

	// Candidates are visited in schema order so exact score ties resolve
	// identically on every run (map iteration order must not leak in).
	aggregate := func(weights []float64, sc scored) (kb.PropertyID, float64) {
		best, bestS := kb.PropertyID(""), 0.0
		for _, ps := range sc.scores {
			var s float64
			for i := range ps.row {
				s += weights[i] * ps.row[i]
			}
			if s > bestS {
				bestS, best = s, ps.pid
			}
		}
		return best, bestS
	}

	// Fitness: F1 of attribute matching with a single provisional
	// threshold gene; the per-property thresholds are refined afterwards.
	fitness := func(genes []float64) float64 {
		weights := ml.NormalizeWeights(genes[:len(matchers)])
		th := genes[len(matchers)]
		tp, fp, fn := 0, 0, 0
		for _, sc := range data {
			got, s := aggregate(weights, sc)
			if s < th {
				got = ""
			}
			switch {
			case got != "" && got == sc.want:
				tp++
			case got != "" && got != sc.want:
				fp++
				if sc.want != "" {
					fn++
				}
			case got == "" && sc.want != "":
				fn++
			}
		}
		return f1(tp, fp, fn)
	}
	genes, _ := ml.Optimize(ml.GAConfig{
		Genes: len(matchers) + 1, Seed: seed, Generations: 40, Population: 40,
	}, fitness)
	model.Weights = ml.NormalizeWeights(genes[:len(matchers)])

	// Per-property threshold: sweep candidate thresholds over the scores
	// observed for that property and keep the F1-maximizing one.
	type obs struct {
		score   float64
		correct bool
	}
	perProp := make(map[kb.PropertyID][]obs)
	positives := make(map[kb.PropertyID]int)
	for _, sc := range data {
		got, s := aggregate(model.Weights, sc)
		if got != "" {
			perProp[got] = append(perProp[got], obs{score: s, correct: got == sc.want})
		}
		if sc.want != "" {
			positives[sc.want]++
		}
	}
	for pid, list := range perProp {
		sort.Slice(list, func(i, j int) bool { return list[i].score < list[j].score })
		bestTh, bestF1 := model.DefaultThreshold, -1.0
		for k := 0; k <= len(list); k++ {
			var th float64
			if k == len(list) {
				th = list[len(list)-1].score + 1e-9
			} else {
				th = list[k].score
			}
			tp, fp := 0, 0
			for _, o := range list {
				if o.score >= th {
					if o.correct {
						tp++
					} else {
						fp++
					}
				}
			}
			fn := positives[pid] - tp
			if f := f1(tp, fp, fn); f > bestF1 {
				bestF1, bestTh = f, th
			}
		}
		model.PropThresholds[pid] = bestTh
	}
	return model
}

// EvaluateAttributes computes precision, recall and F1 of an attribute
// mapping against labeled examples.
func EvaluateAttributes(ctx *Context, m *Model, matchers []Matcher, examples []Example) (p, r, f float64) {
	tp, fp, fn := 0, 0, 0
	for _, ex := range examples {
		got := matchOne(ctx, m, matchers, ex.Table, ex.Col)
		switch {
		case got != "" && got == ex.Want:
			tp++
		case got != "" && got != ex.Want:
			fp++
			if ex.Want != "" {
				fn++
			}
		case got == "" && ex.Want != "":
			fn++
		}
	}
	return precision(tp, fp), recall(tp, fn), f1(tp, fp, fn)
}

func matchOne(ctx *Context, m *Model, matchers []Matcher, t *webtable.Table, col int) kb.PropertyID {
	if t.ColKinds == nil {
		DetectColumnKinds(t)
	}
	bestProp := kb.PropertyID("")
	bestScore := 0.0
	for _, prop := range ctx.KB.Schema(ctx.Class) {
		if !typeCompatible(t.ColKinds[col], prop.Kind) {
			continue
		}
		s := m.Score(ctx, matchers, t, col, prop)
		if s > bestScore {
			bestScore, bestProp = s, prop.ID
		}
	}
	if bestProp == "" || bestScore < m.threshold(bestProp) {
		return ""
	}
	return bestProp
}

func precision(tp, fp int) float64 {
	if tp+fp == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fp)
}

func recall(tp, fn int) float64 {
	if tp+fn == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fn)
}

func f1(tp, fp, fn int) float64 {
	p, r := precision(tp, fp), recall(tp, fn)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}
