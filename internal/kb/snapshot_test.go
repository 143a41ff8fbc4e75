package kb

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dtype"
)

// mustSearch runs an uncancellable SearchInstances.
func mustSearch(t *testing.T, k *KB, q string, opts CandidateOpts) []SearchHit {
	t.Helper()
	hits, err := k.SearchInstances(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return hits
}

// seedPlusIngested builds a KB with two seed instances and two ingested
// write-backs, mirroring a server's state after an epoch.
func seedPlusIngested(t *testing.T) *KB {
	t.Helper()
	k := New()
	k.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
	k.AddInstance(&Instance{Class: ClassGFPlayer, Labels: []string{"Seed Player"}})
	k.AddInstance(&Instance{
		Class:  ClassSong,
		Labels: []string{"Found Tune"},
		Facts: map[PropertyID]dtype.Value{
			"dbo:runtime": dtype.NewQuantity(200),
		},
		Provenance:  ProvenanceIngest,
		IngestEpoch: 1,
	})
	k.AddInstance(&Instance{
		Class:       ClassSong,
		Labels:      []string{"Second Find"},
		Provenance:  ProvenanceIngest,
		IngestEpoch: 2,
	})
	return k
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := seedPlusIngested(t)

	m, err := src.SaveSnapshot(dir, Manifest{
		Epochs: map[string]int{string(ClassSong): 2},
		Tables: map[string][]int{string(ClassSong): {3, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.SeedInstances != 2 || m.Instances != 2 {
		t.Fatalf("manifest = %+v, want 2 seed / 2 ingested", m)
	}
	if m.Epochs[string(ClassSong)] != 2 {
		t.Fatalf("manifest epochs = %v", m.Epochs)
	}
	if got := m.Tables[string(ClassSong)]; len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("manifest tables = %v", m.Tables)
	}

	// A restart regenerates the seed world, then loads the discoveries.
	dst := New()
	dst.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
	dst.AddInstance(&Instance{Class: ClassGFPlayer, Labels: []string{"Seed Player"}})
	lm, err := dst.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Instances != 2 || lm.Epochs[string(ClassSong)] != 2 || len(lm.Tables[string(ClassSong)]) != 2 {
		t.Fatalf("loaded manifest = %+v", lm)
	}

	// Full-KB serialization must be byte-identical to the unsnapshotted KB.
	var want, got bytes.Buffer
	if err := src.WriteInstances(&want); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteInstances(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("reloaded KB serialization differs from the original")
	}
	// The reloaded discoveries answer label-index queries (caches rebuilt
	// over the restored state).
	hits := mustSearch(t, dst, "Found Tune", CandidateOpts{Class: ClassSong})
	if len(hits) == 0 || dst.Instance(hits[0].Instance).Label() != "Found Tune" {
		t.Errorf("reloaded instance not retrievable: %v", hits)
	}
	if dst.Instance(2).Provenance != ProvenanceIngest || dst.Instance(2).IngestEpoch != 1 {
		t.Error("reloaded instance lost provenance or epoch")
	}
}

func TestSnapshotSeedMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := seedPlusIngested(t).SaveSnapshot(dir, Manifest{}); err != nil {
		t.Fatal(err)
	}
	// Wrong world: one seed instance instead of two.
	dst := New()
	dst.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
	if _, err := dst.LoadSnapshot(dir); err == nil {
		t.Error("seed-count mismatch should be rejected")
	}
}

func TestSnapshotMissingIsErrNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := New().LoadSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("empty dir error = %v, want ErrNoSnapshot", err)
	}
	if _, err := ReadManifest(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("ReadManifest error = %v, want ErrNoSnapshot", err)
	}
}

// TestSnapshotUnsafeChainRejected: a manifest whose chain names a file
// outside the snapshot directory, a non-plain name or a negative count, or
// a pre-segment (format 0) manifest listing instances, is refused by
// LoadSnapshot with the KB unchanged, and by CompactSnapshot.
func TestSnapshotUnsafeChainRejected(t *testing.T) {
	base := t.TempDir()
	other := filepath.Join(base, "other")
	good, err := seedPlusIngested(t).SaveSnapshot(other, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	seg := good.Segments[0]
	for _, tc := range []struct {
		name string
		edit func(m *Manifest)
	}{
		{"escaping path", func(m *Manifest) { m.Segments[0].File = filepath.Join("..", "other", seg.File) }},
		{"parent dir", func(m *Manifest) { m.Segments[0].File = ".." }},
		{"empty name", func(m *Manifest) { m.Segments[0].File = "" }},
		{"negative count", func(m *Manifest) { m.Segments[0].Instances = -1 }},
		{"format 0", func(m *Manifest) { m.Format, m.Segments = 0, nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(base, "snap-"+tc.name)
			m := good
			m.Segments = []SegmentInfo{seg}
			tc.edit(&m)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeManifest(dir, m); err != nil {
				t.Fatal(err)
			}
			dst := New()
			dst.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
			dst.AddInstance(&Instance{Class: ClassGFPlayer, Labels: []string{"Seed Player"}})
			ver := dst.Version()
			if _, err := dst.LoadSnapshot(dir); err == nil {
				t.Error("LoadSnapshot accepted the manifest")
			}
			if dst.NumInstances() != 2 || dst.Version() != ver {
				t.Errorf("rejected load changed the KB: %d instances", dst.NumInstances())
			}
			if _, err := CompactSnapshot(dir); err == nil {
				t.Error("CompactSnapshot accepted the manifest")
			}
		})
	}
}

// readFile returns a file's bytes, failing the test on error.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// loadFresh regenerates the two-instance seed world and loads dir onto it,
// returning the serialized instances for byte-level comparison.
func loadFresh(t *testing.T, dir string) []byte {
	t.Helper()
	dst := New()
	dst.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
	dst.AddInstance(&Instance{Class: ClassGFPlayer, Labels: []string{"Seed Player"}})
	if _, err := dst.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dst.WriteInstances(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// failStep makes BeforeStep fail every step of kind on the file named base
// with err, until the returned restore runs (at the latest when the test
// ends).
func failStep(t *testing.T, kind StepKind, base string, err error) (restore func()) {
	prev := BeforeStep
	BeforeStep = func(k StepKind, path string) error {
		if k == kind && filepath.Base(path) == base {
			return err
		}
		return nil
	}
	restore = func() { BeforeStep = prev }
	t.Cleanup(restore)
	return restore
}

// TestSnapshotCrashMidSegmentRecovers simulates a crash between the delta
// segment write and the manifest commit: the previous manifest must stay
// byte-identical, the previous snapshot must stay loadable, and the
// retried save must converge to the same state an uncrashed save reaches.
func TestSnapshotCrashMidSegmentRecovers(t *testing.T) {
	dir := t.TempDir()
	k := seedPlusIngested(t)
	if _, err := k.SaveSnapshot(dir, Manifest{}); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	wantManifest := readFile(t, manifestPath)
	wantLoad := loadFresh(t, dir)

	// Crash: the delta segment reaches disk, the manifest never does.
	k.AddInstance(&Instance{
		Class: ClassSong, Labels: []string{"Third Find"},
		Provenance: ProvenanceIngest, IngestEpoch: 3,
	})
	boom := errors.New("crash between segment write and manifest commit")
	restore := failStep(t, StepCreateTemp, "manifest.json", boom)
	if _, err := k.SaveSnapshot(dir, Manifest{}); !errors.Is(err, boom) {
		t.Fatalf("crashed save error = %v, want injected fault", err)
	}

	// The committed snapshot is exactly the previous one.
	if !bytes.Equal(readFile(t, manifestPath), wantManifest) {
		t.Error("crashed save altered the committed manifest")
	}
	if !bytes.Equal(loadFresh(t, dir), wantLoad) {
		t.Error("crashed save altered what LoadSnapshot reconstructs")
	}

	// The retry overwrites the orphan segment (NextSegment never moved)
	// and commits; the orphan does not join the chain twice.
	restore()
	m, err := k.SaveSnapshot(dir, Manifest{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Instances != 3 || len(m.Segments) != 2 {
		t.Fatalf("retried save manifest = %+v, want 3 instances across 2 segments", m)
	}
	if names := dirNames(t, dir); len(names) != 3 {
		t.Errorf("dir after retry holds %v, want two segments + manifest", names)
	}
	var want bytes.Buffer
	if err := k.WriteInstances(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(loadFresh(t, dir), want.Bytes()) {
		t.Error("retried save reconstructs a different KB")
	}
}

// TestSnapshotCrashMidCompactionRecovers simulates a crash between the
// merged segment write and the manifest commit: the old chain must stay
// the committed snapshot, and the retried compaction must succeed.
func TestSnapshotCrashMidCompactionRecovers(t *testing.T) {
	dir := t.TempDir()
	k := seedPlusIngested(t)
	if _, err := k.SaveSnapshot(dir, Manifest{}); err != nil {
		t.Fatal(err)
	}
	k.AddInstance(&Instance{
		Class: ClassSong, Labels: []string{"Third Find"},
		Provenance: ProvenanceIngest, IngestEpoch: 3,
	})
	if _, err := k.SaveSnapshot(dir, Manifest{}); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	wantManifest := readFile(t, manifestPath)
	wantLoad := loadFresh(t, dir)

	boom := errors.New("crash between merged segment and manifest commit")
	restore := failStep(t, StepCreateTemp, "manifest.json", boom)
	if _, err := CompactSnapshot(dir); !errors.Is(err, boom) {
		t.Fatalf("crashed compaction error = %v, want injected fault", err)
	}
	if !bytes.Equal(readFile(t, manifestPath), wantManifest) {
		t.Error("crashed compaction altered the committed manifest")
	}
	if !bytes.Equal(loadFresh(t, dir), wantLoad) {
		t.Error("crashed compaction altered what LoadSnapshot reconstructs")
	}

	restore()
	m, err := CompactSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 || m.Segments[0].Instances != 3 || m.CompactedAt != 3 {
		t.Fatalf("retried compaction manifest = %+v", m)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("dir after retried compaction holds %v, want one segment + manifest", names)
	}
	if !bytes.Equal(loadFresh(t, dir), wantLoad) {
		t.Error("retried compaction reconstructs a different KB")
	}
}

// dirNames lists the regular files of dir, sorted by ReadDir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestSnapshotAppendsSegmentsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	k := seedPlusIngested(t)
	if _, err := k.SaveSnapshot(dir, Manifest{Epochs: map[string]int{string(ClassSong): 1}}); err != nil {
		t.Fatal(err)
	}
	// A later save appends one delta segment; nothing is rewritten.
	firstSegment := filepath.Join(dir, "segment-000001.ndjson")
	firstBytes := readFile(t, firstSegment)
	k.AddInstance(&Instance{
		Class: ClassSong, Labels: []string{"Third Find"},
		Provenance: ProvenanceIngest, IngestEpoch: 3,
	})
	m, err := k.SaveSnapshot(dir, Manifest{Epochs: map[string]int{string(ClassSong): 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, firstSegment), firstBytes) {
		t.Error("delta save rewrote the already-persisted segment")
	}
	if m.Instances != 3 || len(m.Segments) != 2 {
		t.Fatalf("second save manifest = %+v, want 3 instances across 2 segments", m)
	}
	if m.Segments[1].Instances != 1 || m.Segments[1].FirstEpoch != 3 || m.Segments[1].LastEpoch != 3 {
		t.Fatalf("delta segment = %+v, want exactly the epoch-3 write-back", m.Segments[1])
	}
	if names := dirNames(t, dir); len(names) != 3 {
		t.Errorf("snapshot dir holds %v, want two segments + manifest", names)
	}

	// A save with nothing new ingested appends no segment.
	m, err = k.SaveSnapshot(dir, Manifest{Epochs: map[string]int{string(ClassSong): 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 2 {
		t.Fatalf("no-op save changed the chain: %+v", m.Segments)
	}

	// Compaction merges the chain into one segment and removes the old
	// files; the reconstructed KB is unchanged.
	cm, err := CompactSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Segments) != 1 || cm.Segments[0].Instances != 3 || cm.CompactedAt != 3 {
		t.Fatalf("compacted manifest = %+v", cm)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("compacted dir holds %v, want one segment + manifest", names)
	}
	dst := New()
	dst.AddInstance(&Instance{Class: ClassSong, Labels: []string{"Seed Song"}})
	dst.AddInstance(&Instance{Class: ClassGFPlayer, Labels: []string{"Seed Player"}})
	if _, err := dst.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := k.WriteInstances(&want); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteInstances(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("compacted snapshot reconstructs a different KB")
	}
	if _, err := ReadManifest(filepath.Join(dir)); err != nil {
		t.Fatal(err)
	}
}
