// Package ml provides the learning substrate the pipeline needs: CART
// regression trees and a bagged random-forest regressor (substituting the
// WEKA random forest the paper uses), a genetic-algorithm optimizer for
// learning weighted-average weights and thresholds, k-fold utilities, and
// class-balancing upsampling.
package ml

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// treeNode is one node of a CART regression tree.
type treeNode struct {
	// Leaf nodes predict value; internal nodes split on feature <= thresh.
	feature     int
	thresh      float64
	value       float64
	left, right *treeNode
}

// maxDepth bounds tree depth. Below it a tree splits every node of at
// least two samples whose targets vary, examining a random sqrt(p) of the
// p features at each split (featureSubset).
const maxDepth = 12

// buildTree grows a regression tree on rows X (features) and targets y,
// considering only the given sample indices.
func buildTree(X [][]float64, y []float64, idx []int, depth int, rng *rand.Rand) *treeNode {
	if len(idx) == 0 {
		return &treeNode{feature: -1}
	}
	mean, variance := meanVar(y, idx)
	if variance < 1e-12 || depth >= maxDepth || len(idx) < 2 {
		return &treeNode{feature: -1, value: mean}
	}
	bestFeat, bestThresh, _ := bestSplit(X, y, idx, featureSubset(len(X[0]), rng))
	if bestFeat < 0 {
		return &treeNode{feature: -1, value: mean}
	}
	// bestSplit only returns a split that leaves both sides non-empty.
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    buildTree(X, y, li, depth+1, rng),
		right:   buildTree(X, y, ri, depth+1, rng),
	}
}

// xy is one sample's feature value and target in the split sweep.
type xy struct{ x, y float64 }

// bestSplit returns the feature and threshold whose split of idx has the
// least summed squared error, and that error; bestFeat is -1 when no
// threshold leaves both sides non-empty. Candidate thresholds are the
// midpoints of distinct adjacent values of each feature, tried in feature
// order and then ascending, the first of equal scores winning.
//
// Each feature's (x, y) pairs are sorted once and the thresholds swept
// over prefix sums, the right side taken as the totals minus the left.
// NaN values never satisfy x <= th, so they stay on the right and out of
// the sweep. For integer targets every sum is exact, so each score equals
// the one a per-threshold rescan of the rows computes (TrainForest states
// the precondition).
func bestSplit(X [][]float64, y []float64, idx, feats []int) (bestFeat int, bestThresh, bestScore float64) {
	var tsum, tsq float64
	for _, i := range idx {
		tsum += y[i]
		tsq += y[i] * y[i]
	}
	n := len(idx)
	bestFeat, bestScore = -1, math.Inf(1)
	pairs := make([]xy, 0, n)
	for _, f := range feats {
		pairs = pairs[:0]
		for _, i := range idx {
			if x := X[i][f]; !math.IsNaN(x) {
				pairs = append(pairs, xy{x, y[i]})
			}
		}
		slices.SortFunc(pairs, func(a, b xy) int { return cmp.Compare(a.x, b.x) })
		ln := 0
		var lsum, lsq float64
		for k := 1; k < len(pairs); k++ {
			if pairs[k].x == pairs[k-1].x {
				continue
			}
			th := (pairs[k].x + pairs[k-1].x) / 2
			// A midpoint may round up to the upper value, which then
			// belongs on the left.
			for ; ln < len(pairs) && pairs[ln].x <= th; ln++ {
				lsum += pairs[ln].y
				lsq += pairs[ln].y * pairs[ln].y
			}
			if ln == 0 || ln == n {
				continue // one side empty (ln == 0 only for a NaN midpoint)
			}
			rn := n - ln
			rsum, rsq := tsum-lsum, tsq-lsq
			// SSE = sum(y²) - n*mean², per side.
			score := (lsq - lsum*lsum/float64(ln)) + (rsq - rsum*rsum/float64(rn))
			if score < bestScore {
				bestFeat, bestThresh, bestScore = f, th, score
			}
		}
	}
	return bestFeat, bestThresh, bestScore
}

// predict walks the tree for one feature vector.
func (n *treeNode) predict(x []float64) float64 {
	for n.left != nil {
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// importanceInto accumulates a simple split-count importance per feature.
func (n *treeNode) importanceInto(imp []float64) {
	if n == nil || n.left == nil {
		return
	}
	imp[n.feature]++
	n.left.importanceInto(imp)
	n.right.importanceInto(imp)
}

func meanVar(y []float64, idx []int) (mean, variance float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		variance += d * d
	}
	variance /= float64(len(idx))
	return mean, variance
}

// featureSubset draws the features one split examines: a random
// sqrt(nf)/nf share of the nf features, rounded up, or the only one.
func featureSubset(nf int, rng *rand.Rand) []int {
	if nf == 1 {
		return []int{0}
	}
	frac := math.Sqrt(float64(nf)) / float64(nf)
	return rng.Perm(nf)[:int(math.Ceil(frac*float64(nf)))]
}
