package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// splitSSE is the reference split score: it rescans every sample for one
// threshold and returns the summed squared error of the two sides, or +Inf
// when a side is empty.
func splitSSE(X [][]float64, y []float64, idx []int, f int, th float64) float64 {
	var ln, rn int
	var lsum, rsum, lsq, rsq float64
	for _, i := range idx {
		v := y[i]
		if X[i][f] <= th {
			ln++
			lsum += v
			lsq += v * v
		} else {
			rn++
			rsum += v
			rsq += v * v
		}
	}
	if ln == 0 || rn == 0 {
		return math.Inf(1)
	}
	// SSE = sum(y²) - n*mean².
	lsse := lsq - lsum*lsum/float64(ln)
	rsse := rsq - rsum*rsum/float64(rn)
	return lsse + rsse
}

// bestSplitRef is the quadratic split search bestSplit replaces: every
// midpoint of distinct adjacent sorted values, scored by a rescan.
func bestSplitRef(X [][]float64, y []float64, idx, feats []int) (int, float64, float64) {
	bestFeat, bestThresh, bestScore := -1, 0.0, math.Inf(1)
	vals := make([]float64, 0, len(idx))
	for _, f := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for k := 1; k < len(vals); k++ {
			if vals[k] == vals[k-1] {
				continue
			}
			th := (vals[k] + vals[k-1]) / 2
			if score := splitSSE(X, y, idx, f, th); score < bestScore {
				bestFeat, bestThresh, bestScore = f, th, score
			}
		}
	}
	return bestFeat, bestThresh, bestScore
}

// TestBestSplitMatchesRescan proves the sorted sweep picks the same
// feature and threshold with a bit-identical score as the rescan, for ±1
// and other integer targets. Feature values mix tie-heavy integer grids,
// uniform floats, runs of adjacent floats (whose midpoints round onto one
// of the two values), infinities and NaN; samples repeat, as in a bag.
func TestBestSplitMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func(kind int) float64 {
		switch kind {
		case 0:
			return float64(rng.Intn(4))
		case 1:
			return rng.Float64()
		case 2:
			x := 0.3
			for n := rng.Intn(3); n > 0; n-- {
				x = math.Nextafter(x, 1)
			}
			return x
		default:
			switch rng.Intn(8) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			case 2:
				return math.NaN()
			}
			return float64(rng.Intn(3))
		}
	}
	targets := [][]float64{{-1, 1}, {-3, 0, 2, 5}, {1e6, -7, 3}}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		nf := 1 + rng.Intn(4)
		kinds := make([]int, nf)
		for f := range kinds {
			kinds[f] = rng.Intn(4)
		}
		ys := targets[rng.Intn(len(targets))]
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = value(kinds[f])
			}
			y[i] = ys[rng.Intn(len(ys))]
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		feats := rng.Perm(nf)[:1+rng.Intn(nf)]
		gf, gth, gs := bestSplit(X, y, idx, feats)
		wf, wth, ws := bestSplitRef(X, y, idx, feats)
		if gf != wf || math.Float64bits(gth) != math.Float64bits(wth) || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("trial %d: bestSplit = (%d, %v, %v), rescan = (%d, %v, %v)\nX=%v\ny=%v\nidx=%v feats=%v",
				trial, gf, gth, gs, wf, wth, ws, X, y, idx, feats)
		}
	}
}
