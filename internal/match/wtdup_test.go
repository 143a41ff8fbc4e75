package match

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/webtable"
)

// TestWTDuplicateMatcher exercises the positive path of WT-Duplicate: two
// tables whose rows are clustered together and whose columns are
// preliminarily mapped to the same property; values that agree across the
// tables raise the score for the query table's column.
func TestWTDuplicateMatcher(t *testing.T) {
	w, _ := testWorld()
	tables := []*webtable.Table{
		{
			Headers:  []string{"Player", "Pos"},
			Cells:    [][]string{{"Quintus Marrow", "QB"}, {"Rex Tangle", "WR"}},
			LabelCol: 0,
		},
		{
			Headers:  []string{"Name", "info"}, // cryptic header
			Cells:    [][]string{{"Quintus Marrow", "QB"}, {"Rex Tangle", "WR"}},
			LabelCol: 0,
		},
	}
	corpus := webtable.NewCorpus(tables)
	for _, tb := range tables {
		DetectColumnKinds(tb)
	}
	// Previous-iteration outputs: rows of the same player share a cluster;
	// table 0's position column is preliminarily mapped.
	rowCluster := map[webtable.RowRef]int{
		{Table: 0, Row: 0}: 1, {Table: 1, Row: 0}: 1,
		{Table: 0, Row: 1}: 2, {Table: 1, Row: 1}: 2,
	}
	mapping := map[int]map[int]kb.PropertyID{0: {1: "dbo:position"}}
	ctx := NewContext(w.KB, corpus).WithIteration(mapping, rowCluster, nil)
	ctx.Class = kb.ClassGFPlayer
	prop, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")

	// Table 1's cryptic column: both of its values have an equal value in
	// the same cluster from table 0 → score 1.0.
	if s := (wtDuplicate{}).Score(ctx, tables[1], 1, prop); s < 0.99 {
		t.Errorf("WT-Duplicate with cross-table agreement = %v, want 1.0", s)
	}
	// Table 0's own column: the only supporting values come from table 0
	// itself (same table excluded) — no independent support.
	if s := (wtDuplicate{}).Score(ctx, tables[0], 1, prop); s != 0 {
		t.Errorf("WT-Duplicate without independent support = %v, want 0", s)
	}
	// A conflicting table scores 0.
	conflict := &webtable.Table{
		Headers:  []string{"Player", "data"},
		Cells:    [][]string{{"Quintus Marrow", "DT"}},
		LabelCol: 0,
	}
	corpus2 := webtable.NewCorpus(append(tables, conflict))
	DetectColumnKinds(conflict)
	rowCluster[webtable.RowRef{Table: 2, Row: 0}] = 1
	ctx2 := NewContext(w.KB, corpus2).WithIteration(mapping, rowCluster, nil)
	ctx2.Class = kb.ClassGFPlayer
	if s := (wtDuplicate{}).Score(ctx2, conflict, 1, prop); s != 0 {
		t.Errorf("WT-Duplicate with conflicting value = %v, want 0", s)
	}
}
