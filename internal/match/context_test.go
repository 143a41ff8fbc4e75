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

// TestProfileCacheLivesForTheContext is the engine's cache contract: a
// context's property profile is built once and served for the context's
// whole life. Another class's write-back cannot change it, and a derived
// iteration context shares it; only a fresh context (the next epoch's)
// sees the profiled class grown by its own write-back.
func TestProfileCacheLivesForTheContext(t *testing.T) {
	k := kb.New()
	addPlayer(k, "Amos Quill", "QB")
	ctx := NewContext(k, webtable.NewCorpus(nil))

	p1 := ctx.profile(kb.ClassGFPlayer, "dbo:position")
	if p1 == nil || p1.n != 1 {
		t.Fatalf("initial profile n = %v", p1)
	}

	k.AddInstance(&kb.Instance{Class: kb.ClassSong, Labels: []string{"Quill Song"}})
	if again := ctx.profile(kb.ClassGFPlayer, "dbo:position"); again != p1 {
		t.Error("another class's write-back replaced the profile")
	}
	derived := ctx.WithIteration(nil, nil, nil)
	if p2 := derived.profile(kb.ClassGFPlayer, "dbo:position"); p2 != p1 {
		t.Error("derived context rebuilt the profile instead of sharing it")
	}

	addPlayer(k, "Barton Hedge", "TE")
	fresh := NewContext(k, webtable.NewCorpus(nil))
	if p3 := fresh.profile(kb.ClassGFPlayer, "dbo:position"); p3.n != 2 {
		t.Errorf("fresh context's profile covers %d facts, want 2", p3.n)
	}
}
