package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoTrainingData is returned when forest training receives an empty
// sample matrix.
var ErrNoTrainingData = errors.New("ml: forest training needs a non-empty sample matrix")

// ForestConfig configures random forest regression training.
type ForestConfig struct {
	// Trees is the number of bagged trees (default 40).
	Trees int
	// Tree configures individual tree induction. A zero FeatureSample
	// defaults to sqrt(p)/p.
	Tree TreeConfig
	// BagFraction is the fraction of samples drawn (with replacement)
	// per tree (the paper tunes the out-of-bag rate; default 1.0).
	BagFraction float64
	// Seed makes training deterministic.
	Seed int64
}

// Forest is a trained random-forest regressor.
type Forest struct {
	trees      []*treeNode
	importance []float64
	oobError   float64
	nFeatures  int
}

// TrainForest fits a random forest on X (rows of features) and y (targets).
// Empty, featureless, or inconsistently sized input returns an error rather
// than panicking: training sets can derive from user-supplied ingest
// batches, and a degenerate batch must not take a long-running process
// down.
//
// The split search sweeps sorted prefix sums instead of rescanning the
// rows for every threshold. Its trees are bit-identical to the rescan's
// only for integer targets (agg's are ±1), whose sums and sums of squares
// are exact in any order while they stay below 2^53; other targets give
// trees that may differ from the rescan's in the last bits of a score.
func TrainForest(X [][]float64, y []float64, cfg ForestConfig) (*Forest, error) {
	if len(X) == 0 {
		return nil, ErrNoTrainingData
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("ml: TrainForest got %d samples but %d targets", len(X), len(y))
	}
	nf := len(X[0])
	if nf == 0 {
		return nil, errors.New("ml: TrainForest needs at least one feature")
	}
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("ml: TrainForest sample %d has %d features, want %d", i, len(row), nf)
		}
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 40
	}
	if cfg.BagFraction <= 0 || cfg.BagFraction > 1 {
		cfg.BagFraction = 1.0
	}
	if cfg.Tree.FeatureSample <= 0 {
		cfg.Tree.FeatureSample = math.Sqrt(float64(nf)) / float64(nf)
	}
	if cfg.Tree.MinLeaf <= 0 {
		cfg.Tree.MinLeaf = 1
	}
	if cfg.Tree.MaxDepth <= 0 {
		cfg.Tree.MaxDepth = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	f := &Forest{importance: make([]float64, nf), nFeatures: nf}
	n := len(X)
	bagSize := int(cfg.BagFraction * float64(n))
	if bagSize < 1 {
		bagSize = 1
	}
	// Out-of-bag bookkeeping: accumulated prediction and count per sample.
	oobSum := make([]float64, n)
	oobCnt := make([]int, n)

	for t := 0; t < cfg.Trees; t++ {
		inBag := make([]bool, n)
		idx := make([]int, bagSize)
		for i := range idx {
			j := rng.Intn(n)
			idx[i] = j
			inBag[j] = true
		}
		tree := buildTree(X, y, idx, cfg.Tree, 0, rng)
		f.trees = append(f.trees, tree)
		tree.importanceInto(f.importance)
		for i := 0; i < n; i++ {
			if !inBag[i] {
				oobSum[i] += tree.predict(X[i])
				oobCnt[i]++
			}
		}
	}
	// OOB mean squared error.
	var sse float64
	var cnt int
	for i := 0; i < n; i++ {
		if oobCnt[i] > 0 {
			d := oobSum[i]/float64(oobCnt[i]) - y[i]
			sse += d * d
			cnt++
		}
	}
	if cnt > 0 {
		f.oobError = sse / float64(cnt)
	}
	normalize(f.importance)
	return f, nil
}

// Predict returns the forest's prediction (mean over trees) for x.
func (f *Forest) Predict(x []float64) float64 {
	if len(f.trees) == 0 {
		return 0
	}
	var s float64
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// Importance returns the normalized per-feature importance (sums to 1
// unless the forest never split).
func (f *Forest) Importance() []float64 {
	out := make([]float64, len(f.importance))
	copy(out, f.importance)
	return out
}

// OOBError returns the out-of-bag mean squared error observed in training.
func (f *Forest) OOBError() float64 { return f.oobError }

// NumFeatures returns the feature dimensionality the forest was trained on.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// TuneForest trains forests over the given candidate configurations and
// returns the one with the lowest out-of-bag error, mirroring the paper's
// hyperparameter selection "using the out-of-bag error with different
// out-of-bag rates on the learning set". It propagates TrainForest's error
// on degenerate input.
func TuneForest(X [][]float64, y []float64, candidates []ForestConfig) (*Forest, error) {
	if len(candidates) == 0 {
		return TrainForest(X, y, ForestConfig{})
	}
	var best *Forest
	for _, cfg := range candidates {
		f, err := TrainForest(X, y, cfg)
		if err != nil {
			return nil, err
		}
		if best == nil || f.oobError < best.oobError {
			best = f
		}
	}
	return best, nil
}

func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	for i := range v {
		v[i] /= s
	}
}
