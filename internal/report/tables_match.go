package report

import (
	"context"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/match"
)

// Table6Row is one iteration's attribute-to-property matching performance.
type Table6Row struct {
	Iteration string
	P, R, F1  float64
}

// Table6Data measures attribute-to-property matching by iteration (paper
// Table 6): the first iteration uses the KB-only matchers; the second adds
// the duplicate- and corpus-based matchers fed with the first run's
// clustering and correspondences; the third uses the second run's outputs
// and should add almost nothing. Attribute annotations are split 2/3
// learning, 1/3 testing, averaged over the three classes.
func (s *Suite) Table6Data(ctx context.Context) ([]Table6Row, error) {
	type sums struct{ p, r, f []float64 }
	rows := []sums{{}, {}, {}}
	for _, class := range kb.EvalClasses() {
		g := s.Golds[class]
		n := len(g.Attributes)
		if n == 0 {
			continue
		}
		learnN := n * 2 / 3
		learn, test := g.Attributes[:learnN], g.Attributes[learnN:]

		mctx := match.NewContext(s.World.KB, s.Corpus)
		mctx.Class = class

		// Iteration 1: KB-only matchers.
		m1 := match.Learn(mctx, match.FirstIterationMatchers(), class, learn, s.Seed)
		p, r, f := match.EvaluateAttributes(mctx, m1, match.FirstIterationMatchers(), test)
		rows[0].p = append(rows[0].p, p)
		rows[0].r = append(rows[0].r, r)
		rows[0].f = append(rows[0].f, f)

		// Iteration 2: all matchers with the first pipeline run's output.
		out1, err := s.goldRunIterations(ctx, class, 1)
		if err != nil {
			return nil, err
		}
		mctx2 := mctx.WithIteration(out1.Mapping, out1.Clustering.Assign, out1.RowInstance)
		m2 := match.Learn(mctx2, match.AllMatchers(), class, learn, s.Seed)
		p, r, f = match.EvaluateAttributes(mctx2, m2, match.AllMatchers(), test)
		rows[1].p = append(rows[1].p, p)
		rows[1].r = append(rows[1].r, r)
		rows[1].f = append(rows[1].f, f)

		// Iteration 3: all matchers with the second run's output.
		out2, err := s.goldRunIterations(ctx, class, 2)
		if err != nil {
			return nil, err
		}
		mctx3 := mctx.WithIteration(out2.Mapping, out2.Clustering.Assign, out2.RowInstance)
		m3 := match.Learn(mctx3, match.AllMatchers(), class, learn, s.Seed)
		p, r, f = match.EvaluateAttributes(mctx3, m3, match.AllMatchers(), test)
		rows[2].p = append(rows[2].p, p)
		rows[2].r = append(rows[2].r, r)
		rows[2].f = append(rows[2].f, f)
	}
	names := []string{"First", "Second", "Third"}
	out := make([]Table6Row, 3)
	for i := range rows {
		out[i] = Table6Row{
			Iteration: names[i],
			P:         avg(rows[i].p), R: avg(rows[i].r), F1: avg(rows[i].f),
		}
	}
	return out, nil
}

// Table6 renders Table6Data.
func (s *Suite) Table6(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 6: Attribute-to-property matching performance by iteration",
		Headers: []string{"Iteration", "P", "R", "F1"},
	}
	rows, err := s.Table6Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Iteration, r.P, r.R, r.F1)
	}
	return t, nil
}

// goldRunIterations runs the pipeline over the gold tables with the given
// iteration count (cached models, not cached output).
func (s *Suite) goldRunIterations(ctx context.Context, class kb.ClassID, iterations int) (*core.Output, error) {
	models, err := s.ModelsFor(ctx, class)
	if err != nil {
		return nil, err
	}
	cfg := s.Config(class)
	cfg.Iterations = iterations
	p := core.New(cfg, models)
	return p.Run(ctx, s.Golds[class].TableIDs)
}

// MatcherWeights reports the learned second-iteration matcher weights per
// class (the §3.1 weight analysis).
func (s *Suite) MatcherWeights(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Learned matcher weights (second iteration)",
		Headers: []string{"Class", "KB-Overlap", "KB-Label", "KB-Duplicate", "WT-Label", "WT-Duplicate"},
	}
	for _, class := range kb.EvalClasses() {
		models, err := s.ModelsFor(ctx, class)
		if err != nil {
			return nil, err
		}
		w := make([]float64, 5)
		copy(w, models.AttrSecond.Weights)
		t.Add(kb.ClassShortName(class), w[0], w[1], w[2], w[3], w[4])
	}
	return t, nil
}
