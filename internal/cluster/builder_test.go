package cluster

import (
	"testing"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/webtable"
)

// implicitFixture builds a KB with players sharing a team and a table
// listing exactly those players without a team column.
func implicitFixture() (*kb.KB, *webtable.Corpus) {
	k := kb.New()
	names := []string{"Amos Quill", "Barton Hedge", "Cyrus Fenn"}
	for _, n := range names {
		k.AddInstance(&kb.Instance{
			Class:  kb.ClassGFPlayer,
			Labels: []string{n},
			Facts: map[kb.PropertyID]dtype.Value{
				"dbo:team":     dtype.NewRef("Patriots"),
				"dbo:position": dtype.NewNominal("QB"),
			},
		})
	}
	// A distractor with a different team.
	k.AddInstance(&kb.Instance{
		Class:  kb.ClassGFPlayer,
		Labels: []string{"Dorian Blunt"},
		Facts: map[kb.PropertyID]dtype.Value{
			"dbo:team": dtype.NewRef("Raiders"),
		},
	})
	corpus := webtable.NewCorpus([]*webtable.Table{
		{
			Headers:  []string{"Player", "Pos"},
			LabelCol: 0,
			Cells: [][]string{
				{"Amos Quill", "QB"},
				{"Barton Hedge", "QB"},
				{"Cyrus Fenn", "QB"},
			},
		},
	})
	return k, corpus
}

func TestBuilderDerivesImplicitAttributes(t *testing.T) {
	k, corpus := implicitFixture()
	b := &Builder{
		KB: k, Corpus: corpus, Class: kb.ClassGFPlayer,
		Mapping: map[int]map[int]kb.PropertyID{0: {1: "dbo:position"}},
	}
	rows := b.Build([]int{0})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every row of the table shares the implicit team=Patriots attribute.
	for _, r := range rows {
		ia, ok := r.Implicit["dbo:team"]
		if !ok {
			t.Fatalf("row %v missing implicit team attribute: %v", r.Ref, r.Implicit)
		}
		if ia.Value.Str != "patriots" {
			t.Errorf("implicit team = %+v", ia.Value)
		}
		if ia.Score < 0.99 {
			t.Errorf("implicit team support = %v, want 1.0 (all rows)", ia.Score)
		}
	}
}

// TestBuilderImplicitThreshold pins the fixed support floor of one half:
// a combination held by half the rows is kept, one held by fewer than half
// is dropped.
func TestBuilderImplicitThreshold(t *testing.T) {
	k, _ := implicitFixture()
	corpus := webtable.NewCorpus([]*webtable.Table{
		// Each team is held by one row of two.
		{Headers: []string{"Player"}, LabelCol: 0, Cells: [][]string{{"Amos Quill"}, {"Dorian Blunt"}}},
		// Each team, and the position, is held by one row of three.
		{Headers: []string{"Player"}, LabelCol: 0, Cells: [][]string{{"Amos Quill"}, {"Dorian Blunt"}, {"Xavier Nobody"}}},
	})
	b := &Builder{
		KB: k, Corpus: corpus, Class: kb.ClassGFPlayer,
		Mapping: map[int]map[int]kb.PropertyID{},
	}
	rows := b.Build([]int{0, 1})
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		switch r.Ref.Table {
		case 0:
			ia, ok := r.Implicit["dbo:team"]
			if !ok || ia.Score != 0.5 {
				t.Errorf("row %v: implicit team = %+v, %v; want support 0.5 kept", r.Ref, ia, ok)
			}
		case 1:
			if len(r.Implicit) != 0 {
				t.Errorf("row %v: implicit attributes below half support kept: %v", r.Ref, r.Implicit)
			}
		}
	}
}

func TestBuilderValuesAndBOW(t *testing.T) {
	k, corpus := implicitFixture()
	b := &Builder{
		KB: k, Corpus: corpus, Class: kb.ClassGFPlayer,
		Mapping: map[int]map[int]kb.PropertyID{0: {1: "dbo:position"}},
	}
	rows := b.Build([]int{0})
	r := rows[0]
	if r.Values["dbo:position"].Str != "qb" {
		t.Errorf("mapped value = %+v", r.Values["dbo:position"])
	}
	if r.BOW["amos"] != 1 || r.BOW["qb"] != 1 {
		t.Errorf("BOW = %v", r.BOW)
	}
	if r.NormLabel != "amos quill" {
		t.Errorf("NormLabel = %q", r.NormLabel)
	}
}

func TestBuilderSkipsUnlabeledTables(t *testing.T) {
	k, _ := implicitFixture()
	corpus := webtable.NewCorpus([]*webtable.Table{
		{Headers: []string{"A", "B"}, Cells: [][]string{{"1", "2"}}, LabelCol: -1},
	})
	b := &Builder{KB: k, Corpus: corpus, Class: kb.ClassGFPlayer, Mapping: nil}
	if rows := b.Build([]int{0}); len(rows) != 0 {
		t.Errorf("unlabeled table produced %d rows", len(rows))
	}
}

func TestBlocksShareLabel(t *testing.T) {
	rows := []*Row{
		mkRow(0, 0, "Springfield", nil),
		mkRow(1, 0, "Springfield", nil),
		mkRow(2, 0, "Oakville", nil),
	}
	NewBlockIndex().Assign(rows, 4)
	shared := func(a, b *Row) bool {
		set := make(map[string]bool)
		for _, bl := range a.Blocks {
			set[bl] = true
		}
		for _, bl := range b.Blocks {
			if set[bl] {
				return true
			}
		}
		return false
	}
	if !shared(rows[0], rows[1]) {
		t.Error("identical labels must share a block")
	}
	if shared(rows[0], rows[2]) {
		t.Error("unrelated labels should not share a block")
	}
}
