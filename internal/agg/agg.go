// Package agg implements the similarity score aggregation strategies shared
// by row clustering (§3.2) and new detection (§3.4): a learned weighted
// average, a random forest regression over similarity and confidence
// features, and their learned combination. All aggregators output a
// normalized score in [-1, 1] where positive means "match".
package agg

import (
	"math"
	"sync"

	"repro/internal/ml"
)

// Features holds one comparison's metric outputs: parallel slices of
// similarity scores and confidences (one entry per metric).
type Features struct {
	Scores []float64
	Confs  []float64
}

// Example is one labeled comparison for learning.
type Example struct {
	F     Features
	Match bool
}

// Aggregator maps a feature vector to a normalized match score in [-1, 1].
//
// Contract: Score must not retain or mutate f's slices after returning —
// the scoring hot paths (cluster.Scorer.Pair, newdet.Detector.Score)
// recycle feature vectors through BorrowFeatures/ReturnFeatures.
type Aggregator interface {
	Score(f Features) float64
}

// featuresPool backs BorrowFeatures/ReturnFeatures.
var featuresPool = sync.Pool{New: func() any { return new(Features) }}

// BorrowFeatures returns a pooled feature vector with n slots per side
// (contents unspecified; callers overwrite every slot). Pair-scoring hot
// paths wrap an Aggregator.Score call in BorrowFeatures/ReturnFeatures;
// the Aggregator contract above is what makes the recycling safe.
func BorrowFeatures(n int) *Features {
	f := featuresPool.Get().(*Features)
	if cap(f.Scores) < n {
		f.Scores, f.Confs = make([]float64, n), make([]float64, n)
	}
	f.Scores, f.Confs = f.Scores[:n], f.Confs[:n]
	return f
}

// ReturnFeatures recycles f; the caller must not touch it afterwards.
func ReturnFeatures(f *Features) { featuresPool.Put(f) }

// WeightedAverage aggregates metric scores by a learned weighted average
// with a learned decision threshold. Confidences are not considered (as in
// the paper). The raw average is mapped so that the threshold lands on 0.
type WeightedAverage struct {
	Weights   []float64
	Threshold float64
}

// Score returns the normalized weighted-average score.
func (w *WeightedAverage) Score(f Features) float64 {
	var s float64
	for i, wt := range w.Weights {
		if i < len(f.Scores) {
			s += wt * f.Scores[i]
		}
	}
	return normalizeAround(s, w.Threshold)
}

// normalizeAround maps s in [0,1] to [-1,1] with th landing on 0.
func normalizeAround(s, th float64) float64 {
	if th <= 0 {
		th = 1e-9
	}
	if th >= 1 {
		th = 1 - 1e-9
	}
	var out float64
	if s >= th {
		out = (s - th) / (1 - th)
	} else {
		out = (s - th) / th
	}
	return clamp(out)
}

// LearnWeighted fits weights and the threshold with a genetic algorithm
// maximizing pair-classification F1 on the (upsampled) learning set.
func LearnWeighted(examples []Example, nMetrics int, seed int64) *WeightedAverage {
	if len(examples) == 0 {
		return uniformWA(nMetrics)
	}
	idx := ml.Upsample(len(examples), seed, func(i int) bool { return examples[i].Match })
	fitness := func(genes []float64) float64 {
		w := ml.NormalizeWeights(genes[:nMetrics])
		th := genes[nMetrics]
		tp, fp, fn := 0, 0, 0
		for _, i := range idx {
			ex := examples[i]
			var s float64
			for j, wt := range w {
				if j < len(ex.F.Scores) {
					s += wt * ex.F.Scores[j]
				}
			}
			pred := s >= th
			switch {
			case pred && ex.Match:
				tp++
			case pred && !ex.Match:
				fp++
			case !pred && ex.Match:
				fn++
			}
		}
		return f1(tp, fp, fn)
	}
	genes, _ := ml.Optimize(ml.GAConfig{
		Genes: nMetrics + 1, Seed: seed, Generations: 40, Population: 50,
	}, fitness)
	return &WeightedAverage{
		Weights:   ml.NormalizeWeights(genes[:nMetrics]),
		Threshold: genes[nMetrics],
	}
}

func uniformWA(n int) *WeightedAverage {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return &WeightedAverage{Weights: w, Threshold: 0.5}
}

// ForestAggregator aggregates with a random forest regression over both
// similarity and confidence features; targets are +1 for matching pairs and
// -1 for non-matching pairs.
type ForestAggregator struct {
	Forest   *ml.Forest
	nMetrics int
}

// fvPool recycles the flattened feature vectors of ForestAggregator.Score
// (Forest.Predict only reads them), keeping the scoring hot path
// allocation-free. Package-level rather than per-aggregator so learned
// models stay plain comparable data (determinism tests DeepEqual them).
var fvPool = sync.Pool{New: func() any { return new([]float64) }}

// Score predicts the normalized match score.
func (fa *ForestAggregator) Score(f Features) float64 {
	n := 2 * fa.nMetrics
	xp := fvPool.Get().(*[]float64)
	if cap(*xp) < n {
		*xp = make([]float64, n)
	}
	x := (*xp)[:n]
	fillFeatureVector(x, f, fa.nMetrics)
	v := clamp(fa.Forest.Predict(x))
	*xp = x
	fvPool.Put(xp)
	return v
}

// featureVector lays out [score_0, conf_0, score_1, conf_1, ...].
func featureVector(f Features, nMetrics int) []float64 {
	x := make([]float64, 2*nMetrics)
	fillFeatureVector(x, f, nMetrics)
	return x
}

func fillFeatureVector(x []float64, f Features, nMetrics int) {
	for i := 0; i < nMetrics; i++ {
		x[2*i], x[2*i+1] = 0, 0
		if i < len(f.Scores) {
			x[2*i] = f.Scores[i]
		}
		if i < len(f.Confs) {
			x[2*i+1] = f.Confs[i]
		}
	}
}

// LearnForest trains the forest aggregator, selecting hyperparameters by
// out-of-bag error over a small candidate grid (as the paper does with
// different out-of-bag rates).
func LearnForest(examples []Example, nMetrics int, seed int64) *ForestAggregator {
	if len(examples) == 0 {
		return nil
	}
	idx := ml.Upsample(len(examples), seed, func(i int) bool { return examples[i].Match })
	X := make([][]float64, len(idx))
	y := make([]float64, len(idx))
	for k, i := range idx {
		X[k] = featureVector(examples[i].F, nMetrics)
		if examples[i].Match {
			y[k] = 1
		} else {
			y[k] = -1
		}
	}
	grid := []ml.ForestConfig{
		{Trees: 30, BagFraction: 0.6, Seed: seed},
		{Trees: 30, BagFraction: 0.8, Seed: seed},
		{Trees: 30, BagFraction: 1.0, Seed: seed},
	}
	forest, err := ml.TuneForest(X, y, grid)
	if err != nil {
		// Degenerate learning set (upsampling can only shrink to empty when
		// the input was empty, but guard anyway): fall back to no forest;
		// Combined degrades to the weighted average alone.
		return nil
	}
	return &ForestAggregator{Forest: forest, nMetrics: nMetrics}
}

// Combined aggregates the weighted average and the random forest with a
// learned mixing weight Alpha (score = Alpha·WA + (1−Alpha)·RF).
type Combined struct {
	WA    *WeightedAverage
	RF    *ForestAggregator
	Alpha float64
}

// Score returns the mixed normalized score.
func (c *Combined) Score(f Features) float64 {
	switch {
	case c.RF == nil:
		return c.WA.Score(f)
	case c.WA == nil:
		return c.RF.Score(f)
	}
	return clamp(c.Alpha*c.WA.Score(f) + (1-c.Alpha)*c.RF.Score(f))
}

// LearnCombined learns both aggregators and then the mixing weight.
func LearnCombined(examples []Example, nMetrics int, seed int64) *Combined {
	wa := LearnWeighted(examples, nMetrics, seed)
	rf := LearnForest(examples, nMetrics, seed)
	c := &Combined{WA: wa, RF: rf, Alpha: 0.5}
	if rf == nil || len(examples) == 0 {
		return c
	}
	idx := ml.Upsample(len(examples), seed, func(i int) bool { return examples[i].Match })
	// Neither component score depends on alpha, so each example is scored
	// once here rather than in every one of the GA's fitness evaluations.
	waScore := make([]float64, len(examples))
	rfScore := make([]float64, len(examples))
	for i, ex := range examples {
		waScore[i], rfScore[i] = wa.Score(ex.F), rf.Score(ex.F)
	}
	genes, _ := ml.Optimize(ml.GAConfig{Genes: 1, Seed: seed, Generations: 25, Population: 25},
		func(g []float64) float64 {
			alpha := g[0]
			tp, fp, fn := 0, 0, 0
			for _, i := range idx {
				ex := examples[i]
				s := alpha*waScore[i] + (1-alpha)*rfScore[i]
				pred := s > 0
				switch {
				case pred && ex.Match:
					tp++
				case pred && !ex.Match:
					fp++
				case !pred && ex.Match:
					fn++
				}
			}
			return f1(tp, fp, fn)
		})
	c.Alpha = genes[0]
	return c
}

// Importance returns the per-metric importance of a combined aggregator:
// the average of the metric's weight in the weighted average and its
// relative importance (score feature) in the random forest, as reported in
// Tables 7 and 8 of the paper.
func (c *Combined) Importance() []float64 {
	n := len(c.WA.Weights)
	out := make([]float64, n)
	var rfImp []float64
	if c.RF != nil {
		raw := c.RF.Forest.Importance()
		rfImp = make([]float64, n)
		var sum float64
		for i := 0; i < n; i++ {
			// Attribute both the score and the confidence feature of a
			// metric to that metric.
			rfImp[i] = raw[2*i] + raw[2*i+1]
			sum += rfImp[i]
		}
		if sum > 0 {
			for i := range rfImp {
				rfImp[i] /= sum
			}
		}
	}
	for i := 0; i < n; i++ {
		if rfImp != nil {
			out[i] = (c.WA.Weights[i] + rfImp[i]) / 2
		} else {
			out[i] = c.WA.Weights[i]
		}
	}
	return out
}

func clamp(x float64) float64 {
	return math.Max(-1, math.Min(1, x))
}

func f1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}
