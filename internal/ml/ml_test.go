package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustTrain trains or fails the test: happy-path tests use well-formed
// datasets, so an error is a test bug.
func mustTrain(t testing.TB, X [][]float64, y []float64, cfg ForestConfig) *Forest {
	t.Helper()
	f, err := TrainForest(X, y, cfg)
	if err != nil {
		t.Fatalf("TrainForest: %v", err)
	}
	return f
}

// makeRegression builds a dataset where y depends on features 0 and 1 only.
func makeRegression(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = 2*x[0] - x[1] // features 2, 3 are noise
	}
	return X, y
}

func TestForestLearnsSignal(t *testing.T) {
	X, y := makeRegression(400, 5)
	f := mustTrain(t, X, y, ForestConfig{Trees: 30, Seed: 1})
	var sse, variance float64
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i, x := range X {
		d := f.Predict(x) - y[i]
		sse += d * d
		dv := y[i] - mean
		variance += dv * dv
	}
	if sse >= variance*0.3 {
		t.Errorf("forest failed to learn: SSE %.3f vs variance %.3f", sse, variance)
	}
}

func TestForestImportanceFindsSignalFeatures(t *testing.T) {
	X, y := makeRegression(400, 6)
	f := mustTrain(t, X, y, ForestConfig{Trees: 40, Seed: 2})
	imp := f.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance dims = %d", len(imp))
	}
	// Signal features 0 and 1 must outrank noise features 2 and 3.
	if imp[0] <= imp[2] || imp[0] <= imp[3] {
		t.Errorf("feature 0 importance %.3f should exceed noise %.3f/%.3f", imp[0], imp[2], imp[3])
	}
	var sum float64
	for _, v := range imp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance should normalize to 1, got %v", sum)
	}
}

func TestForestDeterministic(t *testing.T) {
	X, y := makeRegression(100, 7)
	a := mustTrain(t, X, y, ForestConfig{Trees: 10, Seed: 3})
	b := mustTrain(t, X, y, ForestConfig{Trees: 10, Seed: 3})
	for i := 0; i < 10; i++ {
		x := X[i]
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same seed should give identical forests")
		}
	}
}

func TestForestOOBError(t *testing.T) {
	X, y := makeRegression(300, 8)
	f := mustTrain(t, X, y, ForestConfig{Trees: 30, Seed: 4})
	if f.OOBError() <= 0 {
		t.Error("OOB error should be positive on noisy data")
	}
	if f.OOBError() > 1.5 {
		t.Errorf("OOB error suspiciously high: %v", f.OOBError())
	}
	if f.NumFeatures() != 4 {
		t.Errorf("NumFeatures = %d", f.NumFeatures())
	}
}

func TestTuneForestPicksLowerOOB(t *testing.T) {
	X, y := makeRegression(200, 9)
	weak := ForestConfig{Trees: 2, BagFraction: 0.1, Seed: 5}
	strong := ForestConfig{Trees: 30, Seed: 5}
	tuned, err := TuneForest(X, y, []ForestConfig{weak, strong})
	if err != nil {
		t.Fatalf("TuneForest: %v", err)
	}
	w, s := mustTrain(t, X, y, weak).OOBError(), mustTrain(t, X, y, strong).OOBError()
	if w <= s {
		t.Fatalf("weak config's OOB error %v not above the strong one's %v", w, s)
	}
	if tuned.OOBError() != s {
		t.Errorf("tuning picked OOB error %v, want the strong config's %v (weak %v)", tuned.OOBError(), s, w)
	}
}

// TestTrainForestDegenerateInput is the crash-vector regression test:
// training sets can derive from user-supplied ingest batches, so empty or
// inconsistent input must return an error instead of panicking.
func TestTrainForestDegenerateInput(t *testing.T) {
	if _, err := TrainForest(nil, nil, ForestConfig{}); !errors.Is(err, ErrNoTrainingData) {
		t.Errorf("empty input error = %v, want ErrNoTrainingData", err)
	}
	if _, err := TrainForest([][]float64{{1}}, []float64{1, 2}, ForestConfig{}); err == nil {
		t.Error("mismatched X/y should return an error")
	}
	if _, err := TrainForest([][]float64{{}}, []float64{1}, ForestConfig{}); err == nil {
		t.Error("featureless samples should return an error")
	}
	if _, err := TrainForest([][]float64{{1, 2}, {3}}, []float64{1, 2}, ForestConfig{}); err == nil {
		t.Error("ragged samples should return an error")
	}
	if _, err := TuneForest(nil, nil, nil); !errors.Is(err, ErrNoTrainingData) {
		t.Error("TuneForest should propagate the training error")
	}
}

func TestForestConstantTarget(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{5, 5, 5}
	f := mustTrain(t, X, y, ForestConfig{Trees: 5, Seed: 1})
	if got := f.Predict([]float64{0.5}); math.Abs(got-5) > 1e-9 {
		t.Errorf("constant target prediction = %v", got)
	}
}

func TestForestPredictionWithinRange(t *testing.T) {
	// Regression trees cannot extrapolate beyond observed targets.
	X, y := makeRegression(200, 10)
	f := mustTrain(t, X, y, ForestConfig{Trees: 20, Seed: 11})
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range y {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	check := func(a, b, c, d float64) bool {
		p := f.Predict([]float64{a, b, c, d})
		return p >= lo-1e-9 && p <= hi+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeFindsMaximum(t *testing.T) {
	// Maximize -(g0-0.3)² -(g1-0.7)²; optimum at (0.3, 0.7).
	genes, fit := Optimize(GAConfig{Genes: 2, Seed: 1, Generations: 60}, func(g []float64) float64 {
		return -(g[0]-0.3)*(g[0]-0.3) - (g[1]-0.7)*(g[1]-0.7)
	})
	if math.Abs(genes[0]-0.3) > 0.08 || math.Abs(genes[1]-0.7) > 0.08 {
		t.Errorf("GA solution = %v, want ≈ (0.3, 0.7)", genes)
	}
	if fit < -0.01 {
		t.Errorf("fitness = %v", fit)
	}
}

func TestOptimizeRespectsBounds(t *testing.T) {
	genes, _ := Optimize(GAConfig{Genes: 3, Min: 0.2, Max: 0.8, Seed: 2}, func(g []float64) float64 {
		return g[0] + g[1] + g[2] // push toward max
	})
	for _, v := range genes {
		if v < 0.2 || v > 0.8 {
			t.Errorf("gene %v out of [0.2, 0.8]", v)
		}
	}
	if genes[0] < 0.7 {
		t.Errorf("gene should approach upper bound, got %v", genes[0])
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	f := func(g []float64) float64 { return -math.Abs(g[0] - 0.5) }
	a, _ := Optimize(GAConfig{Genes: 1, Seed: 9}, f)
	b, _ := Optimize(GAConfig{Genes: 1, Seed: 9}, f)
	if a[0] != b[0] {
		t.Error("same seed should reproduce the GA run")
	}
}

func TestOptimizeZeroGenes(t *testing.T) {
	g, fit := Optimize(GAConfig{}, func([]float64) float64 { return 1 })
	if g != nil || fit != 0 {
		t.Error("zero genes should return nil")
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := NormalizeWeights([]float64{1, 3})
	if math.Abs(w[0]-0.25) > 1e-9 || math.Abs(w[1]-0.75) > 1e-9 {
		t.Errorf("normalized = %v", w)
	}
	u := NormalizeWeights([]float64{0, 0, 0})
	for _, v := range u {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Errorf("all-zero weights should become uniform: %v", u)
		}
	}
}

func TestFoldsPartition(t *testing.T) {
	folds := Folds(30, 3, 1, nil, nil)
	seen := make(map[int]int)
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 30 {
		t.Fatalf("folds cover %d items, want 30", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("item %d appears %d times", i, c)
		}
	}
	for _, f := range folds {
		if len(f) < 8 || len(f) > 12 {
			t.Errorf("unbalanced fold size %d", len(f))
		}
	}
}

func TestFoldsKeepGroupsTogether(t *testing.T) {
	group := func(i int) string {
		if i < 10 {
			return "homonyms"
		}
		return ""
	}
	folds := Folds(30, 3, 2, group, nil)
	foldOf := make(map[int]int)
	for f, idx := range folds {
		for _, i := range idx {
			foldOf[i] = f
		}
	}
	want := foldOf[0]
	for i := 1; i < 10; i++ {
		if foldOf[i] != want {
			t.Fatalf("group split across folds: item %d in fold %d, item 0 in fold %d",
				i, foldOf[i], want)
		}
	}
}

func TestFoldsSpreadPositives(t *testing.T) {
	positive := func(i int) bool { return i%5 == 0 } // 6 positives in 30
	folds := Folds(30, 3, 3, nil, positive)
	for f, idx := range folds {
		pos := 0
		for _, i := range idx {
			if positive(i) {
				pos++
			}
		}
		if pos != 2 {
			t.Errorf("fold %d has %d positives, want 2", f, pos)
		}
	}
}

func TestTrainTest(t *testing.T) {
	folds := [][]int{{0, 1}, {2, 3}, {4, 5}}
	train, test := TrainTest(folds, 1)
	if len(train) != 4 || len(test) != 2 {
		t.Fatalf("train=%v test=%v", train, test)
	}
	if test[0] != 2 || test[1] != 3 {
		t.Errorf("test fold = %v", test)
	}
}

func TestUpsample(t *testing.T) {
	// 3 positives, 9 negatives → upsampled to 9/9.
	isPos := func(i int) bool { return i < 3 }
	out := Upsample(12, 1, isPos)
	pos, neg := 0, 0
	for _, i := range out {
		if isPos(i) {
			pos++
		} else {
			neg++
		}
	}
	if pos != neg {
		t.Errorf("upsample imbalance: %d pos vs %d neg", pos, neg)
	}
	if neg != 9 {
		t.Errorf("negatives should be unchanged: %d", neg)
	}
}

func TestUpsampleDegenerate(t *testing.T) {
	// All one class: unchanged.
	out := Upsample(5, 1, func(int) bool { return true })
	if len(out) != 5 {
		t.Errorf("all-positive upsample length = %d", len(out))
	}
	out = Upsample(4, 1, func(int) bool { return false })
	if len(out) != 4 {
		t.Errorf("all-negative upsample length = %d", len(out))
	}
	// Already balanced: unchanged.
	out = Upsample(4, 1, func(i int) bool { return i < 2 })
	if len(out) != 4 {
		t.Errorf("balanced upsample length = %d", len(out))
	}
}

func BenchmarkTrainForest(b *testing.B) {
	X, y := makeRegression(300, 20)
	cfg := ForestConfig{Trees: 20, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainForest(X, y, cfg)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := makeRegression(300, 21)
	f := mustTrain(b, X, y, ForestConfig{Trees: 30, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(X[i%len(X)])
	}
}

func BenchmarkOptimize(b *testing.B) {
	cfg := GAConfig{Genes: 6, Generations: 20, Population: 30, Seed: 1}
	fit := func(g []float64) float64 { return -(g[0] - 0.5) * (g[0] - 0.5) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimize(cfg, fit)
	}
}
