package report

import (
	"context"
	"fmt"

	"repro/internal/dtype"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/world"
)

// Table11Row is one class's large-scale profiling result.
type Table11Row struct {
	Class            string
	TotalRows        int
	ExistingEntities int
	MatchedInstances int
	MatchingRatio    float64
	NewEntities      int
	NewFacts         int
	IncEntities      float64 // relative increase vs KB instances
	IncFacts         float64 // relative increase vs KB facts
	EntityAccuracy   float64
	FactAccuracy     float64
}

// Table11Data reproduces the §5 large-scale profiling (paper Table 11):
// the full pipeline over every corpus table matched to a class. Where the
// paper evaluates a stratified 50-entity sample manually, we evaluate all
// returned entities against the world's generation provenance.
func (s *Suite) Table11Data(ctx context.Context) ([]Table11Row, error) {
	var out []Table11Row
	for _, class := range kb.EvalClasses() {
		run, err := s.FullRun(ctx, class)
		if err != nil {
			return nil, err
		}
		row := Table11Row{Class: kb.ClassShortName(class)}
		for _, tid := range run.TableIDs {
			row.TotalRows += s.Corpus.Table(tid).NumRows()
		}
		existing, instances := run.ExistingEntities()
		row.ExistingEntities = len(existing)
		uniq := make(map[kb.InstanceID]bool)
		for _, iid := range instances {
			uniq[iid] = true
		}
		row.MatchedInstances = len(uniq)
		if row.MatchedInstances > 0 {
			row.MatchingRatio = float64(row.ExistingEntities) / float64(row.MatchedInstances)
		}
		newEnts := run.NewEntities()
		row.NewEntities = len(newEnts)
		for _, e := range newEnts {
			row.NewFacts += len(e.Facts)
		}
		prof := s.World.KB.ProfileClass(class)
		if prof.Instances > 0 {
			row.IncEntities = float64(row.NewEntities) / float64(prof.Instances)
		}
		if prof.Facts > 0 {
			row.IncFacts = float64(row.NewFacts) / float64(prof.Facts)
		}
		row.EntityAccuracy = s.newEntityAccuracy(newEnts)
		row.FactAccuracy = s.newFactAccuracy(newEnts)
		out = append(out, row)
	}
	return out, nil
}

// Table11 renders Table11Data.
func (s *Suite) Table11(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title: "Table 11: Large-scale profiling (full corpus run per class)",
		Headers: []string{"Class", "Total Rows", "Existing", "Matched KB", "Ratio",
			"New Entities", "New Facts", "N.Ent Acc", "N.Facts Acc"},
	}
	rows, err := s.Table11Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Class, r.TotalRows, r.ExistingEntities, r.MatchedInstances,
			r.MatchingRatio,
			fmt.Sprintf("%d (+%.0f%%)", r.NewEntities, 100*r.IncEntities),
			fmt.Sprintf("%d (+%.0f%%)", r.NewFacts, 100*r.IncFacts),
			r.EntityAccuracy, r.FactAccuracy)
	}
	return t, nil
}

// worldEntityOf maps a produced entity back to the world entity the
// majority of its rows were generated from (nil for junk/mixed entities).
func (s *Suite) worldEntityOf(e *fusion.Entity) *world.Entity {
	counts := make(map[int]int)
	for _, r := range e.Rows {
		t := s.Corpus.Table(r.Ref.Table)
		if t == nil || t.Truth == nil || r.Ref.Row >= len(t.Truth.RowEntity) {
			continue
		}
		uid := t.Truth.RowEntity[r.Ref.Row]
		if uid >= 0 {
			counts[uid]++
		}
	}
	best, bestN := -1, 0
	for uid, n := range counts {
		if n > bestN || (n == bestN && best >= 0 && uid < best) {
			best, bestN = uid, n
		}
	}
	if best < 0 || bestN*2 <= len(e.Rows) {
		return nil
	}
	return s.World.Entities[best]
}

// newEntityAccuracy is the fraction of returned new entities that describe
// a world entity genuinely absent from the KB.
func (s *Suite) newEntityAccuracy(newEnts []*fusion.Entity) float64 {
	if len(newEnts) == 0 {
		return 0
	}
	correct := 0
	for _, e := range newEnts {
		if we := s.worldEntityOf(e); we != nil && !we.InKB {
			correct++
		}
	}
	return float64(correct) / float64(len(newEnts))
}

// newFactAccuracy is the fraction of the new entities' facts that agree
// with the world truth of the entity they describe.
func (s *Suite) newFactAccuracy(newEnts []*fusion.Entity) float64 {
	th := dtype.DefaultThresholds()
	return eval.FactAccuracy(newEnts, func(e *fusion.Entity) map[string]dtype.Value {
		we := s.worldEntityOf(e)
		if we == nil {
			return nil
		}
		out := make(map[string]dtype.Value, len(we.Truth))
		for pid, v := range we.Truth {
			out[string(pid)] = v
		}
		return out
	}, th)
}

// Table12 reports the property densities of the new entities returned by
// the full run (paper Table 12).
func (s *Suite) Table12(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 12: Property densities for new entities (full run)",
		Headers: []string{"Class", "Property", "Facts", "Density"},
	}
	for _, class := range kb.EvalClasses() {
		run, err := s.FullRun(ctx, class)
		if err != nil {
			return nil, err
		}
		newEnts := run.NewEntities()
		counts := make(map[kb.PropertyID]int)
		for _, e := range newEnts {
			for pid := range e.Facts {
				counts[pid]++
			}
		}
		for _, prop := range s.World.KB.Schema(class) {
			density := 0.0
			if len(newEnts) > 0 {
				density = float64(counts[prop.ID]) / float64(len(newEnts))
			}
			t.Add(kb.ClassShortName(class), string(prop.ID), counts[prop.ID], pct(density))
		}
	}
	return t, nil
}

// RankedData computes the §6 set-expansion comparison: entities returned
// as new are ranked by their distance to the closest existing instance and
// scored with MAP@256, P@5, and P@20, averaged over the classes.
func (s *Suite) RankedData(ctx context.Context) (eval.RankedScores, error) {
	var maps, p5s, p20s []float64
	for _, class := range kb.EvalClasses() {
		run, err := s.GoldRun(ctx, class)
		if err != nil {
			return eval.RankedScores{}, err
		}
		results := entityResults(run.Entities, run.Detections)
		correct := make([]bool, len(run.Entities))
		for i, e := range run.Entities {
			we := s.worldEntityOf(e)
			correct[i] = we != nil && !we.InKB
		}
		rs := eval.EvaluateRanked(results, correct, 256)
		maps = append(maps, rs.MAP)
		p5s = append(p5s, rs.P5)
		p20s = append(p20s, rs.P20)
	}
	return eval.RankedScores{MAP: avg(maps), P5: avg(p5s), P20: avg(p20s), CutK: 256}, nil
}

// Table13 renders the ranked evaluation.
func (s *Suite) Table13(ctx context.Context) (*TextTable, error) {
	rs, err := s.RankedData(ctx)
	if err != nil {
		return nil, err
	}
	t := &TextTable{
		Title:   "Ranked evaluation (§6 set expansion comparison, cut-off 256)",
		Headers: []string{"MAP@256", "P@5", "P@20"},
	}
	t.Add(rs.MAP, rs.P5, rs.P20)
	return t, nil
}
