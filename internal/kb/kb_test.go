package kb

import (
	"testing"

	"repro/internal/dtype"
)

func newTestKB(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddInstance(&Instance{
		Class:  ClassGFPlayer,
		Labels: []string{"Tom Brady"},
		Facts: map[PropertyID]dtype.Value{
			"dbo:position": dtype.NewNominal("QB"),
			"dbo:team":     dtype.NewRef("Patriots"),
		},
		Popularity: 100,
	})
	k.AddInstance(&Instance{
		Class:  ClassGFPlayer,
		Labels: []string{"Kyle Brady"},
		Facts: map[PropertyID]dtype.Value{
			"dbo:position": dtype.NewNominal("TE"),
		},
		Popularity: 5,
	})
	k.AddInstance(&Instance{
		Class:  ClassSettlement,
		Labels: []string{"Springfield", "Springfield Town"},
		Facts: map[PropertyID]dtype.Value{
			"dbo:country": dtype.NewRef("United States"),
		},
		Popularity: 50,
	})
	return k
}

func TestOntology(t *testing.T) {
	k := New()
	if k.Class(ClassGFPlayer) == nil || k.Class(ClassSong) == nil || k.Class(ClassSettlement) == nil {
		t.Fatal("evaluation classes missing from default ontology")
	}
	anc := k.Ancestors(ClassGFPlayer)
	want := []ClassID{ClassAthlete, ClassPerson, ClassAgent, ClassThing}
	if len(anc) != len(want) {
		t.Fatalf("Ancestors = %v, want %v", anc, want)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Errorf("ancestor %d = %v, want %v", i, anc[i], want[i])
		}
	}
}

func TestSharesParent(t *testing.T) {
	k := New()
	if !k.SharesParent(ClassGFPlayer, ClassGFPlayer) {
		t.Error("class shares parent with itself")
	}
	if !k.SharesParent(ClassSettlement, ClassRegion) {
		t.Error("Settlement and Region share PopulatedPlace")
	}
	if k.SharesParent(ClassGFPlayer, ClassSong) {
		t.Error("player and song must not share a (non-root) parent")
	}
	if !k.SharesParent(ClassGFPlayer, ClassAthlete) {
		t.Error("class shares parent with its ancestor")
	}
}

func TestTypeOverlap(t *testing.T) {
	k := New()
	if o := k.TypeOverlap(ClassGFPlayer, ClassGFPlayer); o != 1 {
		t.Errorf("self overlap = %v, want 1", o)
	}
	same := k.TypeOverlap(ClassSettlement, ClassRegion)
	diff := k.TypeOverlap(ClassSettlement, ClassSong)
	if same <= diff {
		t.Errorf("sibling overlap %v should exceed unrelated overlap %v", same, diff)
	}
	if diff != 0 {
		t.Errorf("unrelated classes overlap = %v, want 0", diff)
	}
}

// sharesParentRef and typeOverlapRef are SharesParent and TypeOverlap as
// sets over Ancestors, the references for the chain walks.
func sharesParentRef(k *KB, a, b ClassID) bool {
	if a == b {
		return true
	}
	setA := map[ClassID]bool{a: true}
	for _, x := range k.Ancestors(a) {
		setA[x] = true
	}
	for _, x := range append([]ClassID{b}, k.Ancestors(b)...) {
		if x != ClassThing && setA[x] {
			return true
		}
	}
	ca, cb := k.Class(a), k.Class(b)
	return ca != nil && cb != nil && ca.Parent != "" && ca.Parent == cb.Parent
}

func typeOverlapRef(k *KB, a, b ClassID) float64 {
	chain := func(id ClassID) map[ClassID]bool {
		s := map[ClassID]bool{id: true}
		for _, x := range k.Ancestors(id) {
			if x != ClassThing {
				s[x] = true
			}
		}
		return s
	}
	sa, sb := chain(a), chain(b)
	inter := 0
	for x := range sa {
		if sb[x] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// TestClassHierarchyChecksMatchSets holds SharesParent and TypeOverlap to
// their set references over every pair of the ontology's classes, Thing,
// an unknown class and a class whose parent is unknown, and requires both
// checks to allocate nothing: they run per candidate hit and per TYPE
// comparison of new detection.
func TestClassHierarchyChecksMatchSets(t *testing.T) {
	k := New()
	k.AddClass(&Class{ID: "test:Orphan", Parent: "test:Missing"})
	k.AddClass(&Class{ID: "test:OrphanChild", Parent: "test:Orphan"})
	k.AddClass(&Class{ID: "test:Rookie", Parent: ClassGFPlayer})
	classes := append(k.Classes(), "test:Unknown", "test:Missing")
	for _, a := range classes {
		for _, b := range classes {
			if got, want := k.SharesParent(a, b), sharesParentRef(k, a, b); got != want {
				t.Errorf("SharesParent(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := k.TypeOverlap(a, b), typeOverlapRef(k, a, b); got != want {
				t.Errorf("TypeOverlap(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		k.SharesParent("test:Rookie", ClassSong)
		k.SharesParent(ClassSettlement, ClassRegion)
		k.TypeOverlap("test:Rookie", ClassAthlete)
		k.TypeOverlap(ClassSettlement, ClassSong)
	})
	if allocs != 0 {
		t.Errorf("hierarchy checks allocate %v times per run, want 0", allocs)
	}
}

func TestPropertyLookup(t *testing.T) {
	k := New()
	p, ok := k.Property(ClassGFPlayer, "dbo:position")
	if !ok || p.Kind != dtype.NominalString {
		t.Fatalf("Property lookup = %+v ok=%v", p, ok)
	}
	if _, ok := k.Property(ClassGFPlayer, "dbo:genre"); ok {
		t.Error("player class must not have genre")
	}
}

func TestAddAndGetInstance(t *testing.T) {
	k := newTestKB(t)
	if k.NumInstances() != 3 {
		t.Fatalf("NumInstances = %d", k.NumInstances())
	}
	in := k.Instance(0)
	if in == nil || in.Label() != "Tom Brady" {
		t.Fatalf("Instance(0) = %+v", in)
	}
	if k.Instance(-1) != nil || k.Instance(99) != nil {
		t.Error("out-of-range lookups should return nil")
	}
	if got := len(k.InstancesOf(ClassGFPlayer)); got != 2 {
		t.Errorf("InstancesOf player = %d, want 2", got)
	}
}

func TestCandidates(t *testing.T) {
	k := newTestKB(t)
	cands := k.Candidates("Brady", CandidateOpts{Class: ClassGFPlayer})
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want both Bradys", cands)
	}
	// Class restriction excludes the settlement.
	cands = k.Candidates("Springfield", CandidateOpts{Class: ClassGFPlayer})
	if len(cands) != 0 {
		t.Errorf("class-restricted candidates = %v, want none", cands)
	}
	cands = k.Candidates("Springfield", CandidateOpts{Class: ClassSettlement})
	if len(cands) != 1 {
		t.Errorf("settlement candidates = %v", cands)
	}
	// Alias retrieval.
	cands = k.Candidates("Springfield Town", CandidateOpts{})
	if len(cands) == 0 {
		t.Error("alias should retrieve the instance")
	}
}

func TestCandidatesK(t *testing.T) {
	k := New()
	for i := 0; i < 40; i++ {
		k.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Love Song"}})
	}
	c := k.Candidates("Love Song", CandidateOpts{K: 10})
	if len(c) != 10 {
		t.Errorf("K-capped candidates = %d, want 10", len(c))
	}
}

func TestProfileClass(t *testing.T) {
	k := newTestKB(t)
	p := k.ProfileClass(ClassGFPlayer)
	if p.Instances != 2 || p.Facts != 3 {
		t.Errorf("ProfileClass = %+v, want 2 instances / 3 facts", p)
	}
}

func TestProfileProperties(t *testing.T) {
	k := newTestKB(t)
	profs := k.ProfileProperties(ClassGFPlayer)
	if len(profs) != len(GFPlayerSchema()) {
		t.Fatalf("profiles = %d, want full schema", len(profs))
	}
	// position appears in 2/2 instances, team in 1/2.
	if profs[0].Property != "dbo:position" || profs[0].Density != 1 {
		t.Errorf("densest property = %+v, want position at 1.0", profs[0])
	}
	for i := 1; i < len(profs); i++ {
		if profs[i].Density > profs[i-1].Density {
			t.Error("profiles must be sorted by descending density")
		}
	}
}

func TestDensityFloor(t *testing.T) {
	k := newTestKB(t)
	profs := k.DensityFloor(ClassGFPlayer, 0.3)
	for _, p := range profs {
		if p.Density < 0.3 {
			t.Errorf("property %s below floor: %v", p.Property, p.Density)
		}
	}
	if len(profs) != 2 {
		t.Errorf("floor filter = %d props, want 2 (position, team)", len(profs))
	}
}

func TestClassShortName(t *testing.T) {
	if ClassShortName(ClassGFPlayer) != "GF-Player" {
		t.Error("short name")
	}
	if ClassShortName(ClassSong) != "Song" || ClassShortName(ClassSettlement) != "Settlement" {
		t.Error("short names")
	}
}

func TestEvalClasses(t *testing.T) {
	if got := EvalClasses(); len(got) != 3 || got[0] != ClassGFPlayer {
		t.Errorf("EvalClasses = %v", got)
	}
}
