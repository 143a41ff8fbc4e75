package report

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtype"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/gold"
	"repro/internal/kb"
	"repro/internal/ml"
	"repro/internal/newdet"
	"repro/internal/par"
	"repro/internal/webtable"
)

// Table9Row is one row of the new-instances-found evaluation.
type Table9Row struct {
	Class      string
	Clustering string // "GS" or "ALL"
	NewDet     string
	P, R, F1   float64
}

// Table9Data reproduces the §4.1 evaluation (paper Table 9): per class,
// once with the gold clustering (GS) and once with the learned clustering
// (ALL), both with the learned new detection (ALL), under 3-fold
// cross-validation.
func (s *Suite) Table9Data(ctx context.Context) ([]Table9Row, error) {
	var out []Table9Row
	var avgP, avgR, avgF []float64
	for _, class := range kb.EvalClasses() {
		frs, err := s.foldRuns(ctx, class)
		if err != nil {
			return nil, err
		}
		for _, useGS := range []bool{true, false} {
			var ps, rs, fs []float64
			for _, fr := range frs {
				var prf eval.PRF
				if useGS {
					prf = eval.EvaluateNewInstancesFound(fr.testGold, fr.gsResults)
				} else {
					prf = eval.EvaluateNewInstancesFound(fr.testGold, fr.allResults)
				}
				ps = append(ps, prf.P)
				rs = append(rs, prf.R)
				fs = append(fs, prf.F1)
			}
			name := "ALL"
			if useGS {
				name = "GS"
			}
			out = append(out, Table9Row{
				Class: kb.ClassShortName(class), Clustering: name, NewDet: "ALL",
				P: avg(ps), R: avg(rs), F1: avg(fs),
			})
			if !useGS {
				avgP = append(avgP, avg(ps))
				avgR = append(avgR, avg(rs))
				avgF = append(avgF, avg(fs))
			}
		}
	}
	out = append(out, Table9Row{
		Class: "Average", Clustering: "ALL", NewDet: "ALL",
		P: avg(avgP), R: avg(avgR), F1: avg(avgF),
	})
	return out, nil
}

// Table9 renders Table9Data.
func (s *Suite) Table9(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 9: New instances found evaluation",
		Headers: []string{"Class", "Clust.", "New Det.", "P", "R", "F1"},
	}
	rows, err := s.Table9Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Class, r.Clustering, r.NewDet, r.P, r.R, r.F1)
	}
	return t, nil
}

// Table10Row is one row of the facts-found evaluation.
type Table10Row struct {
	Class      string
	Clustering string
	NewDet     string
	F1Voting   float64
	F1KBT      float64
	F1Matching float64
}

// Table10Data reproduces the §4.2 facts-found evaluation (paper Table 10):
// three pipeline conditions — gold clustering + gold detection, gold
// clustering + learned detection, learned clustering + learned detection —
// each with the three fusion scoring methods.
func (s *Suite) Table10Data(ctx context.Context) ([]Table10Row, error) {
	var out []Table10Row
	scorings := []fusion.ScoringMethod{fusion.Voting, fusion.KBT, fusion.Matching}
	avgF := make(map[fusion.ScoringMethod][]float64)
	th := dtype.DefaultThresholds()
	for _, class := range kb.EvalClasses() {
		frs, err := s.foldRuns(ctx, class)
		if err != nil {
			return nil, err
		}
		type cond struct{ clust, det string }
		for _, c := range []cond{{"GS", "GS"}, {"GS", "ALL"}, {"ALL", "ALL"}} {
			f1s := make(map[fusion.ScoringMethod][]float64)
			for _, fr := range frs {
				for _, scoring := range scorings {
					entities, isNew := fr.factsInput(c.clust, c.det, scoring)
					prf := eval.EvaluateFactsFound(fr.testGold, entities, isNew, th)
					f1s[scoring] = append(f1s[scoring], prf.F1)
				}
			}
			row := Table10Row{
				Class: kb.ClassShortName(class), Clustering: c.clust, NewDet: c.det,
				F1Voting: avg(f1s[fusion.Voting]), F1KBT: avg(f1s[fusion.KBT]),
				F1Matching: avg(f1s[fusion.Matching]),
			}
			out = append(out, row)
			if c.clust == "ALL" && c.det == "ALL" {
				for _, sc := range scorings {
					avgF[sc] = append(avgF[sc], avg(f1s[sc]))
				}
			}
		}
	}
	out = append(out, Table10Row{
		Class: "Average", Clustering: "ALL", NewDet: "ALL",
		F1Voting: avg(avgF[fusion.Voting]), F1KBT: avg(avgF[fusion.KBT]),
		F1Matching: avg(avgF[fusion.Matching]),
	})
	return out, nil
}

// Table10 renders Table10Data.
func (s *Suite) Table10(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 10: Facts found evaluation",
		Headers: []string{"Class", "Clust.", "New Det.", "F1 VOTING", "F1 KBT", "F1 MATCHING"},
	}
	rows, err := s.Table10Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Class, r.Clustering, r.NewDet, r.F1Voting, r.F1KBT, r.F1Matching)
	}
	return t, nil
}

// foldRun carries everything one CV fold needs for Tables 9 and 10.
type foldRun struct {
	suite    *Suite
	class    kb.ClassID
	testGold *gold.Standard
	models   core.Models
	mapping  map[int]map[int]kb.PropertyID
	scores   map[fusion.ColKey]float64
	rowInst  map[webtable.RowRef]kb.InstanceID

	// Gold-clustering entities (per test cluster, nil where none of its
	// rows was built) and their detections.
	gsEntities []*fusion.Entity
	gsDetect   []newdet.Result
	gsResults  []eval.NewEntityResult

	// Learned-clustering entities and detections.
	allEntities []*fusion.Entity
	allDetect   []newdet.Result
	allResults  []eval.NewEntityResult
}

// foldRuns trains per-fold models and materializes the fold's entities and
// detections (cached per class). The three CV folds are independent and
// train concurrently on the suite's worker pool.
func (s *Suite) foldRuns(ctx context.Context, class kb.ClassID) ([]*foldRun, error) {
	return s.foldRunCache.Get(class, func() ([]*foldRun, error) {
		rows, _, err := s.clusterRows(ctx, class)
		if err != nil {
			return nil, err
		}
		folds := s.Folds(class)
		out := make([]*foldRun, len(folds))
		errs := make([]error, len(folds))
		if err := par.ForEachCtx(ctx, s.Workers, len(folds), func(i int) {
			out[i], errs[i] = s.runFold(ctx, class, folds, i, rows)
		}); err != nil {
			return nil, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}
		return out, nil
	})
}

// runFold trains one CV fold's models and materializes its entities and
// detections.
func (s *Suite) runFold(ctx context.Context, class kb.ClassID, folds [][]int, fold int, rows []*cluster.Row) (*foldRun, error) {
	g := s.Golds[class]
	train, test := ml.TrainTest(folds, fold)
	cfg := s.Config(class)
	models, err := core.Train(ctx, cfg, g, train)
	if err != nil {
		return nil, err
	}
	fr := &foldRun{suite: s, class: class, testGold: g.Subset(test), models: models}
	// Final mapping for the fold: apply the second-iteration model
	// with iteration outputs from a 1-iteration pipeline run.
	cfg.Iterations = 2
	out, err := core.New(cfg, models).Run(ctx, g.TableIDs)
	if err != nil {
		return nil, err
	}
	fr.mapping = out.Mapping
	fr.scores = out.MatchScores
	fr.rowInst = out.RowInstance

	// Gold clustering condition: entities from the test gold clusters.
	entities, err := core.GoldEntities(ctx, cfg, fr.mapping, g, test, rows)
	if err != nil {
		return nil, err
	}
	var testRows []*cluster.Row
	fr.gsEntities = make([]*fusion.Entity, len(test))
	fr.gsDetect = make([]newdet.Result, len(test))
	for i, ci := range test {
		e := entities[ci]
		if e == nil {
			continue
		}
		fr.gsEntities[i] = e
		testRows = append(testRows, e.Rows...)
		fr.gsDetect[i] = models.Detector.Detect(e)
		fr.gsResults = append(fr.gsResults, eval.NewEntityResult{
			Rows: fr.testGold.Clusters[i].Rows, Result: fr.gsDetect[i],
		})
	}

	// Learned clustering condition: cluster the test rows.
	src := &fusion.Sources{
		KB: s.World.KB, Corpus: s.Corpus, Class: class,
		Mapping: fr.mapping, Thresholds: dtype.DefaultThresholds(),
	}
	cl, err := cluster.ClusterCtx(ctx, testRows, models.ClusterScorer, s.clusterOptions())
	if err != nil {
		return nil, err
	}
	fr.allEntities = fusion.CreateAll(src, cl)
	fr.allDetect = make([]newdet.Result, len(fr.allEntities))
	for i, e := range fr.allEntities {
		fr.allDetect[i] = models.Detector.Detect(e)
	}
	fr.allResults = entityResults(fr.allEntities, fr.allDetect)
	return fr, ctx.Err()
}

// factsInput assembles the entity list and is-new flags for one Table 10
// condition, re-fusing entities under the requested scoring method.
func (fr *foldRun) factsInput(clust, det string, scoring fusion.ScoringMethod) ([]*fusion.Entity, []bool) {
	src := &fusion.Sources{
		KB: fr.suite.World.KB, Corpus: fr.suite.Corpus, Class: fr.class,
		Mapping: fr.mapping, Thresholds: dtype.DefaultThresholds(),
		Scoring: scoring, MatchScores: fr.scores, RowInstance: fr.rowInst,
	}
	var entities []*fusion.Entity
	var isNew []bool
	if clust == "GS" {
		for subID, c := range fr.testGold.Clusters {
			e := fr.gsEntities[subID]
			if e == nil {
				continue
			}
			refused := fusion.Create(src, e.Rows)
			entities = append(entities, refused)
			if det == "GS" {
				isNew = append(isNew, c.IsNew)
			} else {
				isNew = append(isNew, fr.gsDetect[subID].IsNew)
			}
		}
		return entities, isNew
	}
	for i, e := range fr.allEntities {
		refused := fusion.Create(src, e.Rows)
		entities = append(entities, refused)
		isNew = append(isNew, fr.allDetect[i].IsNew)
	}
	return entities, isNew
}
