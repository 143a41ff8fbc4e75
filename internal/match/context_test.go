package match

import (
	"testing"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/webtable"
)

func addPlayer(k *kb.KB, name, pos string) {
	k.AddInstance(&kb.Instance{
		Class:  kb.ClassGFPlayer,
		Labels: []string{name},
		Facts: map[kb.PropertyID]dtype.Value{
			"dbo:position": dtype.NewNominal(pos),
		},
	})
}

// TestProfileCacheInvalidatesOnKBGrowth is the engine's cache contract:
// a context built before a KB write-back must rebuild its property
// profiles over the grown instance set instead of serving stale ones.
func TestProfileCacheInvalidatesOnKBGrowth(t *testing.T) {
	k := kb.New()
	addPlayer(k, "Amos Quill", "QB")
	ctx := NewContext(k, webtable.NewCorpus(nil))

	p1 := ctx.profile(kb.ClassGFPlayer, "dbo:position")
	if p1 == nil || p1.n != 1 {
		t.Fatalf("initial profile n = %v", p1)
	}
	if again := ctx.profile(kb.ClassGFPlayer, "dbo:position"); again != p1 {
		t.Error("stable KB: profile should be served from cache")
	}

	addPlayer(k, "Barton Hedge", "TE")
	p2 := ctx.profile(kb.ClassGFPlayer, "dbo:position")
	if p2 == p1 {
		t.Fatal("profile not invalidated after KB growth")
	}
	if p2.n != 2 {
		t.Errorf("rebuilt profile covers %d facts, want 2", p2.n)
	}

	// A context derived via WithIteration inherits the version stamp
	// and keeps serving the (still valid) rebuilt profiles.
	derived := ctx.WithIteration(nil, nil, nil)
	if p3 := derived.profile(kb.ClassGFPlayer, "dbo:position"); p3 != p2 {
		t.Error("derived context dropped still-valid profiles")
	}
}
