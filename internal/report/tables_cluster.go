package report

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/ml"
	"repro/internal/webtable"
)

// Table7Row is one ablation step of the row clustering study.
type Table7Row struct {
	Run         string
	PCP, AR, F1 float64
	MI          float64 // metric importance of the newly added metric
}

// Table7Data reproduces the row clustering ablation (paper Table 7): for
// each prefix of the metric set (LABEL, +BOW, +PHI, +ATTRIBUTE,
// +IMPLICIT_ATT, +SAME_TABLE), learn the combined aggregator on the
// training folds, cluster the test-fold rows, and evaluate with the
// Hassanzadeh scores, averaging over classes and folds. The MI column is
// the learned importance of each metric in the all-metrics aggregator.
func (s *Suite) Table7Data(ctx context.Context) ([]Table7Row, error) {
	names := []string{"LABEL", "+ BOW", "+ PHI", "+ ATTRIBUTE", "+ IMPLICIT_ATT", "+ SAME_TABLE"}
	nMetrics := len(names)
	pcp := make([][]float64, nMetrics)
	ar := make([][]float64, nMetrics)
	f1 := make([][]float64, nMetrics)
	var importances [][]float64

	for _, class := range kb.EvalClasses() {
		folds, err := s.clusteringFolds(ctx, class)
		if err != nil {
			return nil, err
		}
		for _, f := range folds {
			for n := 1; n <= nMetrics; n++ {
				scorer, combined := cluster.LearnScorer(cluster.MetricPrefix(n), f.pairs, s.Seed)
				cs := s.evaluateClustering(ctx, f, scorer)
				pcp[n-1] = append(pcp[n-1], cs.PCP)
				ar[n-1] = append(ar[n-1], cs.AR)
				f1[n-1] = append(f1[n-1], cs.F1)
				if n == nMetrics {
					importances = append(importances, combined.Importance())
				}
			}
		}
	}
	mi := averageVectors(importances, nMetrics)
	out := make([]Table7Row, nMetrics)
	for i := range out {
		out[i] = Table7Row{
			Run: names[i],
			PCP: avg(pcp[i]), AR: avg(ar[i]), F1: avg(f1[i]),
			MI: mi[i],
		}
	}
	return out, ctx.Err()
}

// Table7 renders Table7Data.
func (s *Suite) Table7(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 7: Row clustering ablation (averages over classes and folds)",
		Headers: []string{"Run", "PCP", "AR", "F1", "MI"},
	}
	rows, err := s.Table7Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Run, r.PCP, r.AR, r.F1, r.MI)
	}
	return t, nil
}

// ClusterRows returns the prepared rows of the class's gold tables,
// built with the learned first-iteration attribute mapping — the input a
// clustering study (e.g. examples/songs) feeds to cluster.ClusterCtx with
// different scorers. The rows are cached per class; callers must treat
// them as read-only.
func (s *Suite) ClusterRows(ctx context.Context, class kb.ClassID) ([]*cluster.Row, error) {
	rows, _, err := s.clusterRows(ctx, class)
	return rows, err
}

// clusterRows builds (and caches per class) the prepared rows of a class's
// gold tables using the first-iteration attribute mapping.
func (s *Suite) clusterRows(ctx context.Context, class kb.ClassID) ([]*cluster.Row, map[int]map[int]kb.PropertyID, error) {
	cr, err := s.rowsOf.Get(class, func() (classRows, error) {
		if err := s.prepare(ctx); err != nil {
			return classRows{}, err
		}
		g := s.Golds[class]
		models, err := s.ModelsFor(ctx, class)
		if err != nil {
			return classRows{}, err
		}
		mctx := match.NewContext(s.World.KB, s.Corpus)
		mctx.Class = class
		rows, mapping, err := core.FirstIterationRows(ctx, s.Config(class), mctx, models.AttrFirst, g.TableIDs)
		return classRows{rows: rows, mapping: mapping}, err
	})
	return cr.rows, cr.mapping, err
}

// clusteringFold is one cross-validation fold of a class's row clustering
// study: labeled pairs from the training clusters, and the built rows of
// the test clusters with their gold clustering.
type clusteringFold struct {
	pairs    []cluster.PairExample
	testRows []*cluster.Row
	goldRows [][]webtable.RowRef
}

// clusteringFolds splits a class's gold clusters into the CV folds of the
// clustering studies (Table 7 and AblationAggregation), dropping folds
// whose test clusters have no built row.
func (s *Suite) clusteringFolds(ctx context.Context, class kb.ClassID) ([]clusteringFold, error) {
	g := s.Golds[class]
	rows, _, err := s.clusterRows(ctx, class)
	if err != nil {
		return nil, err
	}
	folds := s.Folds(class)
	var out []clusteringFold
	for fold := range folds {
		train, test := ml.TrainTest(folds, fold)
		trainSet := make(map[int]bool, len(train))
		for _, ci := range train {
			trainSet[ci] = true
		}
		f := clusteringFold{pairs: core.LabeledPairs(g, trainSet, rows, 3000)}
		for _, members := range core.GoldRows(g, test, rows) {
			if len(members) > 0 {
				f.testRows = append(f.testRows, members...)
				f.goldRows = append(f.goldRows, rowRefs(members))
			}
		}
		if len(f.testRows) > 0 {
			out = append(out, f)
		}
	}
	return out, nil
}

// evaluateClustering clusters a fold's test rows with scorer and scores the
// result against the fold's gold clustering.
func (s *Suite) evaluateClustering(ctx context.Context, f clusteringFold, scorer *cluster.Scorer) eval.ClusterScores {
	cl := cluster.ClusterCtx(ctx, f.testRows, scorer, s.clusterOptions())
	produced := make([][]webtable.RowRef, len(cl.Clusters))
	for i, members := range cl.Clusters {
		produced[i] = rowRefs(members)
	}
	return eval.EvaluateClustering(f.goldRows, produced)
}

func averageVectors(vs [][]float64, n int) []float64 {
	out := make([]float64, n)
	if len(vs) == 0 {
		return out
	}
	for _, v := range vs {
		for i := 0; i < n && i < len(v); i++ {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vs))
	}
	return out
}

// AblationAggregation compares the three aggregation strategies on the full
// metric set (§3.2: weighted average 0.81, random forest 0.82, combined
// 0.83).
func (s *Suite) AblationAggregation(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Ablation: clustering score aggregation strategies (F1)",
		Headers: []string{"Aggregation", "F1"},
	}
	// All three strategies come from one learned combined aggregator per
	// fold: its weighted-average half, its random-forest half, and the
	// combination itself.
	names := []string{"Weighted average", "Random forest", "Combined"}
	f1s := make([][]float64, len(names))
	metrics := cluster.MetricSet()
	for _, class := range kb.EvalClasses() {
		folds, err := s.clusteringFolds(ctx, class)
		if err != nil {
			return nil, err
		}
		for _, f := range folds {
			combinedScorer, combined := cluster.LearnScorer(metrics, f.pairs, s.Seed)
			scorers := []*cluster.Scorer{{Metrics: metrics, Agg: combined.WA}, combinedScorer, combinedScorer}
			if combined.RF != nil {
				scorers[1] = &cluster.Scorer{Metrics: metrics, Agg: combined.RF}
			}
			for v, scorer := range scorers {
				f1s[v] = append(f1s[v], s.evaluateClustering(ctx, f, scorer).F1)
			}
		}
	}
	for v, name := range names {
		t.Add(name, avg(f1s[v]))
	}
	return t, ctx.Err()
}
