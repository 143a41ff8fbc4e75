package match

import (
	"sync"
	"testing"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/webtable"
	"repro/internal/world"
)

var (
	worldOnce sync.Once
	sharedW   *world.World
	sharedC   *webtable.Corpus
)

func testWorld() (*world.World, *webtable.Corpus) {
	worldOnce.Do(func() {
		sharedW = world.Generate(world.DefaultConfig(0.2))
		sharedC = webtable.Synthesize(sharedW, webtable.DefaultSynthConfig(0.1))
	})
	return sharedW, sharedC
}

func playerTable() *webtable.Table {
	return &webtable.Table{
		ID:      0,
		Headers: []string{"Player", "Position", "Weight", "Born"},
		Cells: [][]string{
			{"Tom Brady", "QB", "225", "August 3, 1977"},
			{"Joe Montana", "QB", "200", "June 11, 1956"},
			{"Jerry Rice", "WR", "200", "October 13, 1962"},
		},
		LabelCol: -1,
	}
}

func TestDetectColumnKinds(t *testing.T) {
	tb := playerTable()
	kinds := DetectColumnKinds(tb)
	want := []dtype.Kind{dtype.Text, dtype.Text, dtype.Quantity, dtype.Date}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("column %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestDetectColumnKindsMajority(t *testing.T) {
	tb := &webtable.Table{
		Headers: []string{"A", "B"},
		Cells: [][]string{
			{"12", "x"}, {"34", "y"}, {"abc", "z"},
		},
	}
	kinds := DetectColumnKinds(tb)
	if kinds[0] != dtype.Quantity {
		t.Errorf("majority-numeric column = %v, want Quantity", kinds[0])
	}
	// Empty cells are ignored in the vote.
	tb2 := &webtable.Table{
		Headers: []string{"A", "B"},
		Cells:   [][]string{{"", "x"}, {"", "y"}, {"7", "z"}},
	}
	if DetectColumnKinds(tb2)[0] != dtype.Quantity {
		t.Error("empty cells should not vote")
	}
}

func TestDetectLabelColumn(t *testing.T) {
	tb := playerTable()
	if got := DetectLabelColumn(tb); got != 0 {
		t.Errorf("label column = %d, want 0 (most unique text values)", got)
	}
	// Position has fewer unique values than Player.
	if tb.LabelCol != 0 {
		t.Error("LabelCol not stored")
	}
}

func TestDetectLabelColumnTieBreaksLeft(t *testing.T) {
	tb := &webtable.Table{
		Headers: []string{"A", "B"},
		Cells:   [][]string{{"x", "p"}, {"y", "q"}},
	}
	if got := DetectLabelColumn(tb); got != 0 {
		t.Errorf("tie should break to leftmost, got %d", got)
	}
}

func TestDetectLabelColumnNoText(t *testing.T) {
	tb := &webtable.Table{
		Headers: []string{"A", "B"},
		Cells:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	if got := DetectLabelColumn(tb); got != -1 {
		t.Errorf("numeric-only table label column = %d, want -1", got)
	}
}

func TestTypeCompatible(t *testing.T) {
	cases := []struct {
		col, prop dtype.Kind
		want      bool
	}{
		{dtype.Text, dtype.InstanceReference, true},
		{dtype.Text, dtype.NominalString, true},
		{dtype.Text, dtype.Text, true},
		{dtype.Text, dtype.Quantity, false},
		{dtype.Quantity, dtype.Quantity, true},
		{dtype.Quantity, dtype.NominalInteger, true},
		{dtype.Quantity, dtype.Date, false},
		{dtype.Date, dtype.Date, true},
		{dtype.Date, dtype.Quantity, true},
		{dtype.Date, dtype.NominalInteger, true},
		{dtype.Date, dtype.Text, false},
		{dtype.Unknown, dtype.Text, false},
	}
	for _, c := range cases {
		if got := typeCompatible(c.col, c.prop); got != c.want {
			t.Errorf("typeCompatible(%v,%v) = %v, want %v", c.col, c.prop, got, c.want)
		}
	}
}

func TestKBLabelMatcher(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer
	tb := playerTable()
	DetectColumnKinds(tb)
	posProp, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")
	teamProp, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:team")
	m := kbLabel{}
	sPos := m.Score(ctx, tb, 1, posProp)
	sTeam := m.Score(ctx, tb, 1, teamProp)
	if sPos <= sTeam {
		t.Errorf("header 'Position' should score higher for position (%v) than team (%v)", sPos, sTeam)
	}
	if sPos < 0.9 {
		t.Errorf("near-exact header similarity = %v", sPos)
	}
}

func TestKBOverlapMatcher(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer
	tb := playerTable()
	DetectColumnKinds(tb)
	m := kbOverlap{}
	posProp, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")
	weightProp, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:weight")
	// "QB"/"WR" are in the KB's position vocabulary.
	if s := m.Score(ctx, tb, 1, posProp); s < 0.9 {
		t.Errorf("position overlap = %v, want high", s)
	}
	// Weights 200-225 lie in the KB weight range.
	if s := m.Score(ctx, tb, 2, weightProp); s < 0.9 {
		t.Errorf("weight overlap = %v, want high", s)
	}
	// A column of implausible values scores low.
	bad := &webtable.Table{
		Headers:  []string{"Player", "Weight"},
		Cells:    [][]string{{"X", "99999"}, {"Y", "88888"}},
		LabelCol: 0,
	}
	DetectColumnKinds(bad)
	if s := m.Score(ctx, bad, 1, weightProp); s > 0.1 {
		t.Errorf("implausible weight overlap = %v, want ~0", s)
	}
}

func TestDuplicateMatchersNeedIterationOutput(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer
	tb := playerTable()
	DetectColumnKinds(tb)
	prop, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")
	if s := (kbDuplicate{}).Score(ctx, tb, 1, prop); s != 0 {
		t.Errorf("KB-Duplicate without correspondences = %v, want 0", s)
	}
	if s := (wtLabel{}).Score(ctx, tb, 1, prop); s != 0 {
		t.Errorf("WT-Label without preliminary mapping = %v, want 0", s)
	}
	if s := (wtDuplicate{}).Score(ctx, tb, 1, prop); s != 0 {
		t.Errorf("WT-Duplicate without clusters = %v, want 0", s)
	}
}

func TestKBDuplicateMatcher(t *testing.T) {
	w, corpus := testWorld()
	// Build a table over real KB head entities with their true positions.
	heads := w.HeadEntities(kb.ClassGFPlayer)[:3]
	tb := &webtable.Table{
		ID:       999,
		Headers:  []string{"Player", "Pos"},
		LabelCol: 0,
	}
	rowInstance := make(map[webtable.RowRef]kb.InstanceID)
	for i, e := range heads {
		tb.Cells = append(tb.Cells, []string{e.Name, e.Truth["dbo:position"].Raw})
		rowInstance[webtable.RowRef{Table: 999, Row: i}] = e.KBID
	}
	DetectColumnKinds(tb)
	ctx := NewContext(w.KB, corpus).WithIteration(nil, nil, rowInstance)
	ctx.Class = kb.ClassGFPlayer
	prop, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")
	s := (kbDuplicate{}).Score(ctx, tb, 1, prop)
	// Some KB instances may lack the position fact (55% density), but
	// matched ones should agree.
	if s < 0.5 {
		t.Errorf("KB-Duplicate on true values = %v, want high", s)
	}
	wrongProp, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:college")
	if sw := (kbDuplicate{}).Score(ctx, tb, 1, wrongProp); sw >= s {
		t.Errorf("wrong property should score lower: %v vs %v", sw, s)
	}
}

func TestWTLabelMatcher(t *testing.T) {
	w, corpus := testWorld()
	// Preliminary mapping from provenance; then query with a header that
	// actually occurs for dbo:position columns in this corpus sample.
	mapping := make(map[int]map[int]kb.PropertyID)
	queryHeader := ""
	for _, tbl := range corpus.Tables {
		if tbl.Truth == nil || tbl.Truth.Class != kb.ClassGFPlayer {
			continue
		}
		for c, pid := range tbl.Truth.ColProperty {
			if pid != "" {
				if mapping[tbl.ID] == nil {
					mapping[tbl.ID] = make(map[int]kb.PropertyID)
				}
				mapping[tbl.ID][c] = pid
				if pid == "dbo:position" && queryHeader == "" {
					queryHeader = tbl.Headers[c]
				}
			}
		}
	}
	if len(mapping) == 0 || queryHeader == "" {
		t.Skip("corpus sample has no mapped position column")
	}
	ctx := NewContext(w.KB, corpus).WithIteration(mapping, nil, nil)
	ctx.Class = kb.ClassGFPlayer
	tb := &webtable.Table{
		ID:       12345,
		Headers:  []string{"Player", queryHeader},
		Cells:    [][]string{{"Somebody New", "QB"}},
		LabelCol: 0,
	}
	DetectColumnKinds(tb)
	prop, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:position")
	if s := (wtLabel{}).Score(ctx, tb, 1, prop); s <= 0 {
		t.Errorf("WT-Label for observed header %q = %v, want positive", queryHeader, s)
	}
	// A property the header never co-occurred with should score lower.
	other, _ := w.KB.Property(kb.ClassGFPlayer, "dbo:birthPlace")
	sPos := (wtLabel{}).Score(ctx, tb, 1, prop)
	sOther := (wtLabel{}).Score(ctx, tb, 1, other)
	if sOther > sPos {
		t.Errorf("WT-Label: birthPlace %v should not beat position %v", sOther, sPos)
	}
}

func TestMatchTableClass(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	// Take a synthetic player table that contains at least one head row.
	var target *webtable.Table
	for _, tbl := range corpus.Tables {
		if tbl.Truth == nil || tbl.Truth.Class != kb.ClassGFPlayer {
			continue
		}
		heads := 0
		for _, uid := range tbl.Truth.RowEntity {
			if uid >= 0 && w.Entities[uid].InKB {
				heads++
			}
		}
		if heads >= 2 && tbl.NumRows() >= 3 {
			target = tbl
			break
		}
	}
	if target == nil {
		t.Skip("no suitable player table in small corpus")
	}
	DetectColumnKinds(target)
	DetectLabelColumn(target)
	cm := MatchTableClass(ctx, target, 0.3)
	if cm.Class != kb.ClassGFPlayer {
		t.Errorf("table class = %v, want GF-Player (score %v)", cm.Class, cm.Score)
	}
	if len(cm.RowInstance) == 0 {
		t.Error("expected row-to-instance matches")
	}
}

func TestMatchTableClassRejectsJunk(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	junk := &webtable.Table{
		Headers:  []string{"Product", "Price"},
		Cells:    [][]string{{"Widget Q-55", "9.99"}, {"Gadget Z-12", "19.99"}},
		LabelCol: -1,
	}
	_ = w
	DetectColumnKinds(junk)
	DetectLabelColumn(junk)
	cm := MatchTableClass(ctx, junk, 0.3)
	if cm.Class != "" {
		t.Errorf("junk table matched to %v", cm.Class)
	}
}

func TestMatchAttributesEndToEnd(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer
	tb := playerTable()
	DetectColumnKinds(tb)
	DetectLabelColumn(tb)
	matchers := FirstIterationMatchers()
	model := DefaultModel(kb.ClassGFPlayer, matchers)
	model.DefaultThreshold = 0.4
	mapping := MatchAttributes(ctx, model, matchers, tb)
	if mapping[1] != "dbo:position" {
		t.Errorf("column 1 mapped to %q, want dbo:position", mapping[1])
	}
	if mapping[2] != "dbo:weight" {
		t.Errorf("column 2 mapped to %q, want dbo:weight", mapping[2])
	}
	if mapping[3] != "dbo:birthDate" {
		t.Errorf("column 3 mapped to %q, want dbo:birthDate", mapping[3])
	}
	if _, ok := mapping[0]; ok {
		t.Error("label column must not be mapped")
	}
}

func TestLearnImprovesOverUniform(t *testing.T) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer

	// Labeled examples from corpus provenance.
	var examples []Example
	for _, tbl := range corpus.Tables {
		if tbl.Truth == nil || tbl.Truth.Class != kb.ClassGFPlayer {
			continue
		}
		DetectColumnKinds(tbl)
		DetectLabelColumn(tbl)
		for c, pid := range tbl.Truth.ColProperty {
			if c == tbl.LabelCol {
				continue
			}
			examples = append(examples, Example{Table: tbl, Col: c, Want: pid})
		}
	}
	if len(examples) < 10 {
		t.Skip("not enough examples")
	}
	matchers := FirstIterationMatchers()
	model := Learn(ctx, matchers, kb.ClassGFPlayer, examples, 1)
	_, _, fLearned := EvaluateAttributes(ctx, model, matchers, examples)
	if fLearned < 0.5 {
		t.Errorf("learned model F1 = %v, want reasonable matching", fLearned)
	}
	// Weights normalized.
	var sum float64
	for _, wgt := range model.Weights {
		sum += wgt
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("weights sum = %v", sum)
	}
}

func TestF1Helpers(t *testing.T) {
	if precision(0, 0) != 0 || recall(0, 0) != 0 || f1(0, 0, 0) != 0 {
		t.Error("degenerate metrics should be 0")
	}
	if precision(5, 0) != 1 || recall(5, 0) != 1 || f1(5, 0, 0) != 1 {
		t.Error("perfect metrics should be 1")
	}
	if got := f1(1, 1, 1); got < 0.49 || got > 0.51 {
		t.Errorf("f1(1,1,1) = %v, want 0.5", got)
	}
}

func BenchmarkMatchAttributes(b *testing.B) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	ctx.Class = kb.ClassGFPlayer
	tb := playerTable()
	DetectColumnKinds(tb)
	DetectLabelColumn(tb)
	matchers := FirstIterationMatchers()
	model := DefaultModel(kb.ClassGFPlayer, matchers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchAttributes(ctx, model, matchers, tb)
	}
}

func BenchmarkMatchTableClass(b *testing.B) {
	w, corpus := testWorld()
	ctx := NewContext(w.KB, corpus)
	tb := playerTable()
	DetectColumnKinds(tb)
	DetectLabelColumn(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchTableClass(ctx, tb, 0.3)
	}
}
