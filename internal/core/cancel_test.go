package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/gold"
	"repro/internal/kb"
)

// cancelAt returns a Progress hook that cancels the context the first time
// the given stage of the given iteration starts — a deterministic
// mid-ingest cancellation point.
func cancelAt(cancel context.CancelFunc, stage Stage, iteration int) func(Event) {
	fired := false
	return func(ev Event) {
		if !fired && ev.Stage == stage && ev.Iteration == iteration {
			fired = true
			cancel()
		}
	}
}

// TestIngestCancelledCommitsNothing is the cancellation consistency
// criterion: an Ingest cancelled mid-epoch (at several different stages)
// returns context.Canceled, publishes nothing — epoch, history, retained
// output and the KB are exactly as before — and the same engine then
// completes the identical batch on a retry, producing output byte-identical
// to a never-cancelled engine's.
func TestIngestCancelledCommitsNothing(t *testing.T) {
	w, corpus := fixture()
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	if len(tables) < 2 {
		t.Fatal("fixture needs at least two GF-Player tables")
	}

	// The reference run: an uncancelled engine over the same batches.
	refCfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
	refCfg.Iterations = 2
	ref := NewEngine(refCfg, Models{})
	ref.WriteBack = false
	refOut, refStats, err := ref.Ingest(context.Background(), tables)
	if err != nil {
		t.Fatalf("reference ingest: %v", err)
	}

	stages := []struct {
		stage Stage
		it    int
	}{
		{StageMatch, 1},
		{StageCluster, 1},
		{StageDetect, 1},
		{StageMatch, 2}, // second iteration: retained-state paths
		{StageFuse, 2},
	}
	for _, tc := range stages {
		t.Run(string(tc.stage), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
			cfg.Iterations = 2
			cfg.Progress = cancelAt(cancel, tc.stage, tc.it)
			eng := NewEngine(cfg, Models{})
			eng.WriteBack = false

			kbBefore := w.KB.NumInstances()
			out, stats, err := eng.Ingest(ctx, tables)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Ingest after cancel at %s/it%d: err = %v, want context.Canceled", tc.stage, tc.it, err)
			}
			if out != nil || stats != (IngestStats{}) {
				t.Errorf("cancelled Ingest leaked output: out=%v stats=%+v", out, stats)
			}
			// Nothing published, nothing in the KB.
			if got := eng.Epoch(); got != 0 {
				t.Errorf("Epoch after cancelled ingest = %d, want 0", got)
			}
			if eng.Last() != nil {
				t.Error("Last() non-nil after cancelled ingest")
			}
			if h := eng.History(); len(h) != 0 {
				t.Errorf("History after cancelled ingest = %v", h)
			}
			if got := w.KB.NumInstances(); got != kbBefore {
				t.Errorf("KB grew during cancelled ingest: %d -> %d", kbBefore, got)
			}

			// The engine is resumable: retrying the identical batch on the
			// same engine reproduces the uncancelled run exactly.
			eng.Cfg.Progress = nil
			out, stats, err = eng.Ingest(context.Background(), tables)
			if err != nil {
				t.Fatalf("retry after cancel: %v", err)
			}
			if stats != refStats {
				t.Errorf("retry stats = %+v, want %+v", stats, refStats)
			}
			outputsEqual(t, refOut, out)
		})
	}
}

// TestIngestCancelledLaterEpoch cancels later epochs of a write-back
// engine, where retained clusters exist, the KB has grown and the entity
// and detection memo is live. Each later epoch is cancelled on a fork at
// two stages: detection in the first iteration (the memo must not commit
// entities without their detections) and entity creation in the second
// (after the first iteration committed its memo). A cancelled epoch
// publishes nothing and leaves the KB as it was, and retrying the batch
// must reproduce the output of an uncancelled fork exactly. The forks do
// not write back, so the streaming engine's KB only grows by its own
// epochs. A stage that a mapping fixpoint skips never fires; that epoch
// then completes and must match the uncancelled fork as well.
func TestIngestCancelledLaterEpoch(t *testing.T) {
	w, corpus := engineFixture(t)
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	eng := NewEngine(DefaultConfig(w.KB, corpus, kb.ClassGFPlayer), Models{})
	batches := splitBatches(tables, 4)
	if _, _, err := eng.Ingest(t.Context(), batches[0]); err != nil {
		t.Fatal(err)
	}
	cancelled := map[Stage]int{}
	for i, batch := range batches[1:] {
		epoch := i + 2
		for _, tc := range []struct {
			stage Stage
			it    int
		}{{StageDetect, 1}, {StageFuse, 2}} {
			ref := eng.Fork()
			ref.WriteBack = false
			want, _, err := ref.Ingest(t.Context(), batch)
			if err != nil {
				t.Fatalf("reference ingest: %v", err)
			}

			ctx, cancel := context.WithCancel(t.Context())
			f := eng.Fork()
			f.WriteBack = false
			f.Cfg.Progress = cancelAt(cancel, tc.stage, tc.it)
			kbVer := w.KB.Version()
			got, _, err := f.Ingest(ctx, batch)
			fired := ctx.Err() != nil
			cancel()
			if fired {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("epoch %d, cancel at %s/it%d: err = %v, want context.Canceled", epoch, tc.stage, tc.it, err)
				}
				cancelled[tc.stage]++
				if f.Epoch() != eng.Epoch() || !reflect.DeepEqual(f.History(), eng.History()) {
					t.Fatalf("epoch %d, cancel at %s/it%d: cancelled ingest published state", epoch, tc.stage, tc.it)
				}
				f.Cfg.Progress = nil
				got, _, err = f.Ingest(t.Context(), batch)
			}
			if err != nil {
				t.Fatalf("epoch %d, cancel at %s/it%d: %v", epoch, tc.stage, tc.it, err)
			}
			if w.KB.Version() != kbVer {
				t.Fatalf("epoch %d, cancel at %s/it%d: a fork grew the KB", epoch, tc.stage, tc.it)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d, cancel at %s/it%d: retried output differs from an uncancelled fork", epoch, tc.stage, tc.it)
			}
		}
		if _, _, err := eng.Ingest(t.Context(), batch); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("cancelled epochs per stage: %v", cancelled)
	if cancelled[StageDetect] == 0 || cancelled[StageFuse] == 0 {
		t.Errorf("cancelled epochs per stage = %v, want each stage cancelled at least once", cancelled)
	}
}

// TestIngestCancelledBeforeStart: an already-cancelled context returns
// immediately without touching anything.
func TestIngestCancelledBeforeStart(t *testing.T) {
	w, corpus := fixture()
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(DefaultConfig(w.KB, corpus, kb.ClassGFPlayer), Models{})
	eng.WriteBack = false
	if _, _, err := eng.Ingest(ctx, tables); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eng.Epoch() != 0 || eng.Last() != nil {
		t.Error("pre-cancelled ingest published state")
	}
}

// TestTrainCancelled: Train honors cancellation and returns empty models.
func TestTrainCancelled(t *testing.T) {
	w, corpus := fixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
	g := gold.FromWorld(w, corpus, kb.ClassGFPlayer, 40)
	all := make([]int, len(g.Clusters))
	for i := range all {
		all[i] = i
	}
	models, err := Train(ctx, cfg, g, all)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train err = %v, want context.Canceled", err)
	}
	if models != (Models{}) {
		t.Error("cancelled Train returned partial models")
	}
}

// TestClassifyTablesCancelled: the classify fan-out honors cancellation.
func TestClassifyTablesCancelled(t *testing.T) {
	w, corpus := fixture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ClassifyTables(ctx, w.KB, corpus, 0.3, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIngestProgressEvents: the progress callback sees every stage of
// every iteration, in order, and write-back once per epoch.
func TestIngestProgressEvents(t *testing.T) {
	w, corpus := fixture()
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
	cfg.Iterations = 2
	var got []Event
	cfg.Progress = func(ev Event) { got = append(got, ev) }
	eng := NewEngine(cfg, Models{})
	eng.WriteBack = false
	if _, _, err := eng.Ingest(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		stage Stage
		it    int
	}{
		{StageMatch, 1}, {StageBuild, 1}, {StageCluster, 1}, {StageFuse, 1}, {StageDetect, 1},
		{StageMatch, 2}, {StageBuild, 2}, {StageCluster, 2}, {StageFuse, 2}, {StageDetect, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Stage != w.stage || got[i].Iteration != w.it || got[i].Epoch != 1 {
			t.Errorf("event %d = %+v, want stage %s it %d epoch 1", i, got[i], w.stage, w.it)
		}
		if got[i].Class != kb.ClassGFPlayer {
			t.Errorf("event %d class = %q", i, got[i].Class)
		}
	}
}
