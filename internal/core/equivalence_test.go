package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/match"
)

// TestLSHEquivalenceOverScenarios holds the pipeline's KB candidate
// retrieval to per-call identity with its exact reference: for every seed
// scenario class it runs the pipeline once, then requires Candidates to
// return exactly the IDs SearchInstances returns for every row label and
// entity label, under each option set the pipeline passes — table-to-class
// matching (K 8, no class), implicit attributes (K 5, the class) and new
// detection (the detector's K, the class). internal/cluster's test of the
// same name holds block assignment to its exact reference the same way.
//
// Identity (not mere similarity) is achievable because LSH retrieval is
// re-ranked by the same exact TF-IDF scorer the reference search uses: a
// call can only differ when the candidate union (LSH buckets plus the
// rare-token posting walk) misses one of the reference's top hits. The
// two halves split the similarity spectrum between them — banding covers
// multi-token/fuzzy matches, the rare-token walk covers high-IDF
// single-token matches — so on corpora whose informative tokens stay
// within the rare cap the union covers everything the exact scorer can
// rank highly (see internal/lsh, "Hybrid retrieval").
func TestLSHEquivalenceOverScenarios(t *testing.T) {
	t.Parallel()
	w, corpus := fixture()
	byClass := classify(w.KB, corpus)
	detectK := defaultDetector(w.KB).CandidateK
	for _, class := range kb.EvalClasses() {
		tids := byClass[class]
		if len(tids) == 0 {
			t.Errorf("%s: no tables classified", class)
			continue
		}
		cfg := DefaultConfig(w.KB, corpus, class)
		cfg.Iterations = 1
		out, err := New(cfg, Models{}).Run(t.Context(), tids)
		if err != nil {
			t.Fatalf("%s: run: %v", class, err)
		}
		var labels []string
		for _, r := range out.Rows {
			labels = append(labels, r.Label)
		}
		for _, e := range out.Entities {
			labels = append(labels, e.Labels...)
		}
		slices.Sort(labels)
		labels = slices.Compact(labels)
		optSets := []kb.CandidateOpts{{K: 8}, {K: 5, Class: class}, {K: detectK, Class: class}}
		calls := 0
		for _, l := range labels {
			for _, opts := range optSets {
				calls++
				hits, err := w.KB.SearchInstances(t.Context(), l, opts)
				if err != nil {
					t.Fatal(err)
				}
				var want []kb.InstanceID
				for _, h := range hits {
					want = append(want, h.Instance)
				}
				if got := w.KB.Candidates(l, opts); !slices.Equal(got, want) {
					t.Errorf("%s: Candidates(%q, %+v) = %v, SearchInstances %v", class, l, opts, got, want)
				}
			}
		}
		if len(out.Rows) == 0 || len(out.Entities) == 0 {
			t.Errorf("%s: run built %d rows and %d entities", class, len(out.Rows), len(out.Entities))
		}
		t.Logf("%s: %d distinct labels, %d candidate calls compared", class, len(labels), calls)
	}
}

// fullEpoch runs the next epoch of f without Ingest's shortcuts: every
// configured iteration in full, every iteration's row pairs scored with a
// fresh score cache, and every entity created and detected from scratch.
// It also returns how many row-pair scores those caches computed.
// f must be a throwaway fork; nothing is committed or written back.
func fullEpoch(t *testing.T, f *Engine, batch []int) (*Output, int) {
	t.Helper()
	newIDs := f.newTableIDs(batch)
	f.cur = f.epoch + 1
	mc := match.NewContext(f.Cfg.KB, f.Cfg.Corpus)
	mc.Class = f.Cfg.Class
	var out *Output
	scored := 0
	for it := 0; it < f.Cfg.Iterations; it++ {
		f.memo = nil
		model, matchers, mctx := f.passInputs(mc, out)
		next, err := f.matchBatch(t.Context(), it+1, mctx, model, matchers, newIDs)
		if err != nil {
			t.Fatal(err)
		}
		cache := cluster.NewScoreCache(f.phi)
		if _, err := f.finishIteration(t.Context(), it+1, next, newIDs, cache); err != nil {
			t.Fatal(err)
		}
		scored += cache.Scored()
		out = next
	}
	return out, scored
}

// TestEpochShortcutsMatchFullRecompute streams every seed scenario class
// through a write-back engine in small batches and requires each epoch's
// published output to equal a reference epoch computed on a fork with
// every iteration run in full and every entity created and detected from
// scratch, so a memoized entity reused across write-backs is checked
// against a fresh fuse, and the epoch's shared score cache against
// from-scratch scoring. It also requires that every shortcut fired: an
// epoch ending at a mapping fixpoint, a detection reused after a
// write-back because its candidate list was unchanged, and a row-pair
// score served to a later iteration than the one that computed it. Such
// reuse shows as an epoch that ran every iteration yet computed fewer
// scores than the reference's per-iteration caches.
func TestEpochShortcutsMatchFullRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every scenario class twice; skipped in -short")
	}
	fixpoints, revalidated, reusedScores := 0, 0, 0
	// Matching scoring makes entity creation read the match scores, so the
	// fixpoint must also compare them.
	for _, scoring := range []fusion.ScoringMethod{fusion.Voting, fusion.Matching} {
		w, corpus := engineFixture(t)
		byClass := classify(w.KB, corpus)
		for _, class := range kb.EvalClasses() {
			tids := byClass[class]
			cfg := DefaultConfig(w.KB, corpus, class)
			cfg.Scoring = scoring
			eng := NewEngine(cfg, Models{})
			for lo := 0; lo < len(tids); lo += 4 {
				batch := tids[lo:min(lo+4, len(tids))]
				ref := eng.Fork()
				ref.WriteBack = false
				want, fullScored := fullEpoch(t, ref, batch)

				scored := eng.scoredPairs
				got, st, err := eng.Ingest(t.Context(), batch)
				if err != nil {
					t.Fatal(err)
				}
				scored = eng.scoredPairs - scored
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (scoring %v) epoch %d: output differs from the full recompute", class, scoring, st.Epoch)
				}
				if st.Iterations < cfg.Iterations {
					fixpoints++
					continue
				}
				// Both ran every iteration over the same rows, so they
				// needed the same scores, and the epoch cache computed
				// each distinct one once.
				if scored > fullScored || (scored == 0) != (fullScored == 0) {
					t.Fatalf("%s (scoring %v) epoch %d: epoch cache computed %d scores, per-iteration caches %d", class, scoring, st.Epoch, scored, fullScored)
				}
				reusedScores += fullScored - scored
			}
			revalidated += eng.revalidated
		}
	}
	t.Logf("fixpoint epochs %d, revalidated detections %d, reused row-pair scores %d", fixpoints, revalidated, reusedScores)
	if fixpoints == 0 {
		t.Error("no epoch stopped at a mapping fixpoint")
	}
	if revalidated == 0 {
		t.Error("no detection was reused by candidate revalidation")
	}
	if reusedScores == 0 {
		t.Error("the epoch score cache never served a later iteration")
	}
}
