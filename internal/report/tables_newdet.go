package report

import (
	"context"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/ml"
	"repro/internal/newdet"
)

// Table8Row is one ablation step of the new detection study.
type Table8Row struct {
	Run        string
	ACC        float64
	F1Existing float64
	F1New      float64
	MI         float64
}

// Table8Data reproduces the new detection ablation (paper Table 8): for
// each prefix of the metric set (LABEL, +TYPE, +BOW, +ATTRIBUTE,
// +IMPLICIT_ATT, +POPULARITY), learn the combined aggregator and
// thresholds on the training folds' entities and classify the test-fold
// entities, averaging accuracy and per-class F1 over classes and folds.
func (s *Suite) Table8Data(ctx context.Context) ([]Table8Row, error) {
	names := []string{"LABEL", "+ TYPE", "+ BOW", "+ ATTRIBUTE", "+ IMPLICIT_ATT", "+ POPULARITY"}
	nMetrics := len(names)
	acc := make([][]float64, nMetrics)
	f1e := make([][]float64, nMetrics)
	f1n := make([][]float64, nMetrics)
	var importances [][]float64

	for _, class := range kb.EvalClasses() {
		g := s.Golds[class]
		folds := s.Folds(class)
		// The §3.4 evaluation setting: one entity per gold cluster, fused
		// under the first-iteration mapping.
		rows, mapping, err := s.clusterRows(ctx, class)
		if err != nil {
			return nil, err
		}
		entities, err := core.GoldEntities(ctx, s.Config(class), mapping, g, allClusters(g), rows)
		if err != nil {
			return nil, err
		}
		for fold := range folds {
			train, test := ml.TrainTest(folds, fold)
			trainEx, _ := core.DetectionExamples(g, train, entities)
			testEx, testIdx := core.DetectionExamples(g, test, entities)
			if len(trainEx) == 0 || len(testEx) == 0 {
				continue
			}
			for n := 1; n <= nMetrics; n++ {
				metrics := newdet.MetricPrefix(n)
				combined, _ := newdet.LearnAggregator(s.World.KB, metrics, trainEx, s.Seed)
				det := newdet.LearnThresholds(s.World.KB, metrics, combined, trainEx, s.Seed)
				results := make([]newdet.Result, len(testEx))
				for i, ex := range testEx {
					results[i] = det.Detect(ex.Entity)
				}
				ds := eval.EvaluateDetection(g, testIdx, results)
				acc[n-1] = append(acc[n-1], ds.Accuracy)
				f1e[n-1] = append(f1e[n-1], ds.F1Existing)
				f1n[n-1] = append(f1n[n-1], ds.F1New)
				if n == nMetrics {
					importances = append(importances, combined.Importance())
				}
			}
		}
	}
	mi := averageVectors(importances, nMetrics)
	out := make([]Table8Row, nMetrics)
	for i := range out {
		out[i] = Table8Row{
			Run: names[i],
			ACC: avg(acc[i]), F1Existing: avg(f1e[i]), F1New: avg(f1n[i]),
			MI: mi[i],
		}
	}
	return out, nil
}

// Table8 renders Table8Data.
func (s *Suite) Table8(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 8: New detection ablation (averages over classes and folds)",
		Headers: []string{"Run", "ACC", "F1-Existing", "F1-New", "MI"},
	}
	rows, err := s.Table8Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Run, r.ACC, r.F1Existing, r.F1New, r.MI)
	}
	return t, nil
}
