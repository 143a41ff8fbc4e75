package newdet

import (
	"slices"
	"testing"

	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/kb"
)

// TestCandidateCacheExtendsOnKBGrowth is the write-back contract: an
// entity whose label had no candidates must, after the engine writes a
// matching instance into the KB, see that instance as a candidate — the
// detector's cache extends instead of serving the stale empty list.
func TestCandidateCacheExtendsOnKBGrowth(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(len(MetricSet())))
	e := mkEntity("Zebulon Quirk", nil)

	if cands := d.Candidates(e); len(cands) != 0 {
		t.Fatalf("unexpected candidates before growth: %v", cands)
	}
	// Second lookup hits the cache (same version, same result).
	if cands := d.Candidates(e); len(cands) != 0 {
		t.Fatalf("cached lookup differs: %v", cands)
	}

	id := k.AddInstance(&kb.Instance{
		Class:       kb.ClassGFPlayer,
		Labels:      []string{"Zebulon Quirk"},
		Provenance:  kb.ProvenanceIngest,
		IngestEpoch: 1,
	})
	cands := d.Candidates(e)
	found := false
	for _, c := range cands {
		if c == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("written-back instance %d not in candidates %v after growth", id, cands)
	}

	// And the detector now matches the entity to its written-back copy.
	res := d.Detect(e)
	if !res.Matched || res.Instance != id {
		t.Errorf("Detect = %+v, want match to instance %d", res, id)
	}
}

// TestDetectAmongCandidatesMatchesDetect pins the split the engine's
// detection memo relies on: DetectAmong over Candidates is Detect, and
// after the KB grows by an instance no entity retrieves, every candidate
// list is unchanged and a result computed before the growth still equals
// a fresh Detect.
func TestDetectAmongCandidatesMatchesDetect(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(len(MetricSet())))
	ents := []*fusion.Entity{
		mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{"dbo:position": dtype.NewNominal("QB")}),
		mkEntity("Mark Stone", map[kb.PropertyID]dtype.Value{"dbo:team": dtype.NewRef("Raiders")}),
		mkEntity("Stonefield", nil),
		mkEntity("Zebulon Quixote", nil),
	}
	before := make([]Result, len(ents))
	beforeCands := make([][]kb.InstanceID, len(ents))
	for i, e := range ents {
		beforeCands[i] = d.Candidates(e)
		before[i] = d.DetectAmong(e, beforeCands[i])
		if want := d.Detect(e); before[i] != want {
			t.Errorf("entity %d: DetectAmong = %+v, Detect = %+v", i, before[i], want)
		}
	}

	k.AddInstance(&kb.Instance{Class: kb.ClassGFPlayer, Labels: []string{"Quentin Yarborough"}})
	for i, e := range ents {
		if got := d.Candidates(e); !slices.Equal(got, beforeCands[i]) {
			t.Fatalf("entity %d: unrelated growth changed candidates %v -> %v", i, beforeCands[i], got)
		}
		if got := d.Detect(e); got != before[i] {
			t.Errorf("entity %d: Detect after unrelated growth = %+v, want %+v", i, got, before[i])
		}
	}
}
