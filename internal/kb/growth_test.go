package kb

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dtype"
)

// TestVersionBumpsOnGrowth verifies the cache-invalidation contract: every
// AddInstance and AddClass bumps the monotonic version counter.
func TestVersionBumpsOnGrowth(t *testing.T) {
	k := New()
	v0 := k.Version()
	if v0 == 0 {
		t.Fatal("ontology construction should already have bumped the version")
	}
	k.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Yesterday"}})
	if k.Version() != v0+1 {
		t.Errorf("AddInstance: version %d, want %d", k.Version(), v0+1)
	}
	k.AddClass(&Class{ID: "dbo:Island", Label: "Island", Parent: ClassPlace})
	if k.Version() != v0+2 {
		t.Errorf("AddClass: version %d, want %d", k.Version(), v0+2)
	}
}

// TestProvenanceFields verifies write-back provenance is stored and that
// seed instances default to no provenance.
func TestProvenanceFields(t *testing.T) {
	k := newTestKB(t)
	if in := k.Instance(0); in.Provenance != "" || in.IngestEpoch != 0 {
		t.Errorf("seed instance carries provenance: %q epoch %d", in.Provenance, in.IngestEpoch)
	}
	id := k.AddInstance(&Instance{
		Class:       ClassGFPlayer,
		Labels:      []string{"Joe Rookie"},
		Provenance:  ProvenanceIngest,
		IngestEpoch: 3,
	})
	in := k.Instance(id)
	if in.Provenance != ProvenanceIngest || in.IngestEpoch != 3 {
		t.Errorf("write-back provenance lost: %q epoch %d", in.Provenance, in.IngestEpoch)
	}
}

// TestConcurrentGrowthAndSearch is the post-construction growth contract
// under the race detector: writers add instances, half one at a time and
// half in small AddInstances batches, while readers search, look up
// instances, profile classes and list candidates. It pins the visibility
// order of both write paths: an instance is stored before its labels enter
// the index, so every hit a reader gets, from the index itself as well as
// through Candidates and SearchInstances, resolves to a stored instance.
func TestConcurrentGrowthAndSearch(t *testing.T) {
	k := newTestKB(t)
	const writers, readers, perWriter, batch = 4, 4, 24, 3
	grown := func(w, i int) *Instance {
		return &Instance{
			Class:  ClassSettlement,
			Labels: []string{fmt.Sprintf("Growtown %d-%d", w, i)},
			Facts: map[PropertyID]dtype.Value{
				"dbo:country": dtype.NewRef("United States"),
			},
			Provenance:  ProvenanceIngest,
			IngestEpoch: 1,
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i += batch {
				if w%2 == 0 {
					for j := i; j < i+batch; j++ {
						k.AddInstance(grown(w, j))
					}
					continue
				}
				ins := make([]*Instance, 0, batch)
				for j := i; j < i+batch; j++ {
					ins = append(ins, grown(w, j))
				}
				k.AddInstances(ins)
			}
		}(w)
	}
	resolves := func(id InstanceID) bool {
		return k.Instance(id) != nil && k.InstanceClass(id) != ""
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// filterHits drops documents without a stored instance, so
				// the index's own hits are what pin the order.
				for _, h := range k.globalIx.Retrieve("Growtown", 200) {
					if !resolves(InstanceID(h.Doc)) {
						t.Errorf("index hit %d has no stored instance", h.Doc)
						return
					}
				}
				for _, id := range k.Candidates("Growtown", CandidateOpts{K: 10, Class: ClassSettlement}) {
					if !resolves(id) || k.InstanceClass(id) != ClassSettlement {
						t.Errorf("candidate %d does not resolve to a settlement", id)
						return
					}
				}
				hits, err := k.SearchInstances(t.Context(), "Growtown", CandidateOpts{K: 10})
				if err != nil {
					t.Error(err)
					return
				}
				for _, h := range hits {
					if !resolves(h.Instance) {
						t.Errorf("search hit %d does not resolve", h.Instance)
						return
					}
				}
				n := k.NumInstances()
				if in := k.Instance(InstanceID(n - 1)); in == nil {
					t.Error("instance visible in count but not by ID")
					return
				}
				k.ProfileClass(ClassSettlement)
				k.InstancesOf(ClassSettlement)
				_ = k.Version()
			}
		}()
	}
	wg.Wait()

	want := 3 + writers*perWriter
	if k.NumInstances() != want {
		t.Fatalf("NumInstances = %d, want %d", k.NumInstances(), want)
	}
	// Every written instance is matchable via the label index afterwards.
	cands := k.Candidates("Growtown 0-0", CandidateOpts{K: 5, Class: ClassSettlement})
	if len(cands) == 0 {
		t.Fatal("grown instance not matchable by label")
	}
	found := false
	for _, id := range cands {
		if k.Instance(id).Label() == "Growtown 0-0" {
			found = true
		}
	}
	if !found {
		t.Error("candidate search did not retrieve the grown instance")
	}
}

// TestInstancesOfIsACopy guards the snapshot contract: mutating the
// returned slice must not corrupt the KB's class listing.
func TestInstancesOfIsACopy(t *testing.T) {
	k := newTestKB(t)
	ids := k.InstancesOf(ClassGFPlayer)
	if len(ids) != 2 {
		t.Fatalf("InstancesOf = %v", ids)
	}
	ids[0] = -99
	if again := k.InstancesOf(ClassGFPlayer); again[0] == -99 {
		t.Error("InstancesOf returned the internal slice")
	}
}
