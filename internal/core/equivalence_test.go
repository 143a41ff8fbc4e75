package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/match"
)

// exactPaths forces both LSH retrieval layers (clustering block assignment
// and KB candidate generation) onto their exact reference paths and
// returns a restore func.
func exactPaths() func() {
	cluster.SetScanBlocking(true)
	kb.SetScanCandidates(true)
	return func() {
		cluster.SetScanBlocking(false)
		kb.SetScanCandidates(false)
	}
}

// TestLSHEquivalenceOverScenarios runs the full pipeline over every seed
// scenario class twice — once on the default LSH candidate paths, once on
// the exact reference paths — and requires identical final output: the
// same clustering assignment, the same entities, and the same detections.
// It also holds the block-level candidate recall to a floor, so a future
// retuning of the LSH parameters cannot silently trade recall away while
// the output equivalence happens to survive on this corpus.
//
// Identity (not mere similarity) is achievable because LSH retrieval is
// re-ranked by the same exact TF-IDF scorer the reference search uses:
// output can only diverge when the candidate union (LSH buckets plus the
// rare-token posting walk) misses one of the reference's above-floor
// top-k hits. The two halves split the similarity spectrum between them —
// banding covers multi-token/fuzzy matches, the rare-token walk covers
// high-IDF single-token matches — so on corpora whose informative tokens
// stay within the rare cap the union covers everything the exact scorer
// can rank highly (see internal/lsh, "Hybrid retrieval").
func TestLSHEquivalenceOverScenarios(t *testing.T) {
	w, corpus := fixture()
	byClass := classify(w.KB, corpus)
	for _, class := range kb.EvalClasses() {
		tids := byClass[class]
		if len(tids) == 0 {
			t.Errorf("%s: no tables classified", class)
			continue
		}
		cfg := DefaultConfig(w.KB, corpus, class)
		cfg.Iterations = 1

		lsh, err := New(cfg, Models{}).Run(context.Background(), tids)
		if err != nil {
			t.Fatalf("%s: lsh run: %v", class, err)
		}

		restore := exactPaths()
		exact, err := New(cfg, Models{}).Run(context.Background(), tids)
		restore()
		if err != nil {
			t.Fatalf("%s: exact run: %v", class, err)
		}

		// Block-level recall: every block the exact path assigned should
		// also be proposed by LSH retrieval (measured before requiring
		// full identity, to localize a failure to the retrieval layer).
		hit, total := 0, 0
		lshBlocks := make(map[string]map[string]bool)
		for _, r := range lsh.Rows {
			set := make(map[string]bool, len(r.Blocks))
			for _, b := range r.Blocks {
				set[b] = true
			}
			lshBlocks[r.NormLabel] = set
		}
		for _, r := range exact.Rows {
			set := lshBlocks[r.NormLabel]
			for _, b := range r.Blocks {
				total++
				if set[b] {
					hit++
				}
			}
		}
		if total == 0 {
			t.Fatalf("%s: exact run assigned no blocks", class)
		}
		if recall := float64(hit) / float64(total); recall < 0.97 {
			t.Errorf("%s: block recall = %.4f over %d reference blocks, want >= 0.97", class, recall, total)
		}

		// Full output identity at default thresholds.
		if !reflect.DeepEqual(lsh.Clustering.Assign, exact.Clustering.Assign) {
			t.Errorf("%s: clustering assignment differs between LSH and exact paths", class)
		}
		if len(lsh.Entities) != len(exact.Entities) {
			t.Fatalf("%s: entity counts differ: %d (lsh) vs %d (exact)", class, len(lsh.Entities), len(exact.Entities))
		}
		for i := range lsh.Entities {
			if lsh.Entities[i].Label() != exact.Entities[i].Label() {
				t.Errorf("%s: entity %d label differs: %q vs %q",
					class, i, lsh.Entities[i].Label(), exact.Entities[i].Label())
			}
			ld, ed := lsh.Detections[i], exact.Detections[i]
			if ld.Matched != ed.Matched || ld.IsNew != ed.IsNew || ld.Instance != ed.Instance {
				t.Errorf("%s: entity %d detection differs: %+v vs %+v", class, i, ld, ed)
			}
		}
		if !reflect.DeepEqual(lsh.RowInstance, exact.RowInstance) {
			t.Errorf("%s: row-instance mapping differs between LSH and exact paths", class)
		}
	}
}

// fullEpoch runs the next epoch of f without Ingest's shortcuts: every
// configured iteration in full, and every entity created and detected from
// scratch.
// f must be a throwaway fork; nothing is committed or written back.
func fullEpoch(t *testing.T, f *Engine, batch []int) *Output {
	t.Helper()
	newIDs := f.newTableIDs(batch)
	f.cur = f.epoch + 1
	mc := match.NewContext(f.Cfg.KB, f.Cfg.Corpus)
	mc.Class = f.Cfg.Class
	var out *Output
	for it := 0; it < f.Cfg.Iterations; it++ {
		f.memo = nil
		model, matchers, mctx := f.passInputs(mc, out)
		next, err := f.matchBatch(t.Context(), it+1, mctx, model, matchers, newIDs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.finishIteration(t.Context(), it+1, next, newIDs); err != nil {
			t.Fatal(err)
		}
		out = next
	}
	return out
}

// TestEpochShortcutsMatchFullRecompute streams every seed scenario class
// through a write-back engine in small batches and requires each epoch's
// published output to equal a reference epoch computed on a fork with
// every iteration run in full and every entity created and detected from
// scratch, so a memoized entity reused across write-backs is checked
// against a fresh fuse. It also requires that both shortcuts fired: an
// epoch ending at a mapping fixpoint, and a detection reused after a
// write-back because its candidate list was unchanged.
func TestEpochShortcutsMatchFullRecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("streams every scenario class twice; skipped in -short")
	}
	fixpoints, revalidated := 0, 0
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
				want := fullEpoch(t, ref, batch)

				got, st, err := eng.Ingest(t.Context(), batch)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s (scoring %v) epoch %d: output differs from the full recompute", class, scoring, st.Epoch)
				}
				if st.Iterations < cfg.Iterations {
					fixpoints++
				}
			}
			revalidated += eng.revalidated
		}
	}
	t.Logf("fixpoint epochs %d, revalidated detections %d", fixpoints, revalidated)
	if fixpoints == 0 {
		t.Error("no epoch stopped at a mapping fixpoint")
	}
	if revalidated == 0 {
		t.Error("no detection was reused by candidate revalidation")
	}
}
