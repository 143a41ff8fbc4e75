package kb

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Snapshot persistence is append-only and epoch-oriented: a directory
// holds numbered instance segments (segment-NNNNNN.ndjson) plus a
// manifest listing the chain. SaveSnapshot writes one segment per call —
// only the instances ingested since the chain was last extended — and
// commits by rewriting the manifest last (temp-file+rename+fsync), so a
// crash at any point leaves the previous complete snapshot loadable.
// CompactSnapshot merges the chain back into one segment under the same
// discipline.
const (
	snapshotManifestFile = "manifest.json"
	segmentPattern       = "segment-%06d.ndjson"
	// snapshotFormatSegmented is the Manifest.Format of the segmented
	// layout, the only one LoadSnapshot reads instances from.
	snapshotFormatSegmented = 2
)

// ErrNoSnapshot is returned by LoadSnapshot when the directory holds no
// complete snapshot (no manifest).
var ErrNoSnapshot = errors.New("kb: no snapshot manifest")

// snapshotFault, when non-nil, is called at the named commit points of
// SaveSnapshot and CompactSnapshot ("segment" after a delta segment is
// in place, "compact-merge" after a merged segment is in place — both
// before the manifest commit). A returned error aborts the operation
// there, simulating a crash between segment write and manifest rename.
// Test hook only.
var snapshotFault func(stage string) error

// SegmentInfo describes one instance segment of a snapshot chain.
type SegmentInfo struct {
	// File is the segment's file name inside the snapshot directory.
	File string `json:"file"`
	// Instances is the number of instance lines in the segment.
	Instances int `json:"instances"`
	// FirstEpoch and LastEpoch bound the ingest epochs of the segment's
	// instances (diagnostic; zero when not recorded).
	FirstEpoch int `json:"firstEpoch,omitempty"`
	LastEpoch  int `json:"lastEpoch,omitempty"`
}

// Manifest describes a KB snapshot: the seed world it was taken against,
// the segment chain holding its ingested instances, and the engine
// bookkeeping (epochs, ingested tables) needed to resume.
type Manifest struct {
	// Format versions the directory layout: snapshotFormatSegmented for
	// the segment chain. A manifest of any other format that lists
	// instances is refused.
	Format int `json:"format,omitempty"`
	// SeedInstances is the number of non-ingested (seed) instances in the
	// KB at save time. LoadSnapshot refuses to load over a KB whose seed
	// size differs: the snapshot's discoveries were made against that world.
	SeedInstances int `json:"seedInstances"`
	// Instances is the total number of ingested instances across the
	// segment chain.
	Instances int `json:"instances"`
	// KBVersion is the KB's mutation counter at save time (diagnostic;
	// version counters restart from the reloaded state's own mutations).
	KBVersion uint64 `json:"kbVersion"`
	// WorldKey identifies the deterministic seed world the snapshot was
	// taken against (the caller encodes generation seed and scales).
	// Loaders that know their own world key must refuse a mismatch: the
	// seed-count check alone cannot tell two same-sized worlds apart, and
	// loading discoveries onto a different world silently misaligns every
	// label, signature and table ID.
	WorldKey string `json:"worldKey,omitempty"`
	// Epochs maps class ID to the number of completed ingest epochs.
	Epochs map[string]int `json:"epochs,omitempty"`
	// Tables maps class ID to the corpus table IDs ingested so far, so a
	// resumed engine does not re-ingest (and "auto" ingestion does not
	// re-pick) tables processed before the snapshot.
	Tables map[string][]int `json:"tables,omitempty"`
	// Segments is the ordered chain of instance segments; LoadSnapshot
	// replays them in order.
	Segments []SegmentInfo `json:"segments,omitempty"`
	// NextSegment is the sequence number the next written segment file
	// will use; it only grows, so a crashed save's orphan file is
	// overwritten by the retry rather than joined to the chain.
	NextSegment int `json:"nextSegment,omitempty"`
	// CompactedAt records the last compaction: the highest ingest epoch
	// merged into a single segment (zero when never compacted).
	CompactedAt int `json:"compactedAt,omitempty"`
}

// checkChain rejects a manifest whose segment chain must not be opened:
// instances listed under a format other than the segmented one, or a
// segment that is not a plain file name inside the snapshot directory
// with a non-negative instance count. Manifests are read from disk, so a
// name such as "../other/segment-000001.ndjson" must not reach a file
// outside dir. Every path that opens a segment checks the chain first.
func checkChain(m Manifest) error {
	if m.Format != snapshotFormatSegmented && m.Instances > 0 {
		return fmt.Errorf("kb: snapshot manifest format %d is not supported (want %d)", m.Format, snapshotFormatSegmented)
	}
	for _, seg := range m.Segments {
		if seg.File == "." || seg.File == ".." || seg.File != filepath.Base(seg.File) || seg.Instances < 0 {
			return fmt.Errorf("kb: snapshot segment %q with %d instances is not a plain file name with a non-negative count",
				seg.File, seg.Instances)
		}
	}
	return nil
}

// chainReusable reports whether the prior manifest's segment chain is a
// valid persisted prefix of this KB's ingestion order: same world, same
// seed count, chain not longer than what the KB holds, internally
// consistent, and every segment file present. When it is not, SaveSnapshot
// falls back to rewriting a fresh single-segment chain.
func chainReusable(dir string, prior Manifest, seeds int, worldKey string, ingested int) bool {
	if prior.WorldKey != worldKey || prior.SeedInstances != seeds || prior.Instances > ingested || checkChain(prior) != nil {
		return false
	}
	total := 0
	for _, seg := range prior.Segments {
		if _, err := os.Stat(filepath.Join(dir, seg.File)); err != nil {
			return false
		}
		total += seg.Instances
	}
	return total == prior.Instances
}

// SaveSnapshot persists the KB's ingested instances (Provenance ==
// ProvenanceIngest) plus a manifest into dir, creating it if needed. meta
// carries the caller-owned manifest fields (WorldKey, Epochs, Tables);
// counts, chain and KB version are filled in here.
//
// The save is incremental: when dir already holds a snapshot of the same
// world, only the instances ingested since that snapshot are written, as
// one new segment appended to the chain (no segment at all when nothing
// new was ingested). The manifest commits last via temp-file+rename, so
// a crash mid-save leaves the prior snapshot intact; files a crashed
// save orphaned are overwritten or removed by the next successful one.
func (kb *KB) SaveSnapshot(dir string, meta Manifest) (Manifest, error) {
	m := Manifest{
		Format:    snapshotFormatSegmented,
		KBVersion: kb.Version(),
		WorldKey:  meta.WorldKey,
		Epochs:    meta.Epochs,
		Tables:    meta.Tables,
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("kb: creating snapshot dir: %w", err)
	}

	// Pin the persistence state under one lock section, so the manifest
	// can never disagree with the segments when the KB grows concurrently
	// with the save.
	kb.mu.RLock()
	seeds := len(kb.locs) - len(kb.ingested)
	ingested := make([]InstanceID, len(kb.ingested))
	copy(ingested, kb.ingested)
	kb.mu.RUnlock()
	m.SeedInstances = seeds
	m.Instances = len(ingested)

	var chain []SegmentInfo
	next := 1
	if prior, err := ReadManifest(dir); err == nil && chainReusable(dir, prior, seeds, meta.WorldKey, len(ingested)) {
		chain = prior.Segments
		if prior.NextSegment > next {
			next = prior.NextSegment
		}
		m.CompactedAt = prior.CompactedAt
	} else if err != nil && !errors.Is(err, ErrNoSnapshot) {
		return Manifest{}, err
	}

	persisted := 0
	for _, seg := range chain {
		persisted += seg.Instances
	}
	if delta := ingested[persisted:]; len(delta) > 0 {
		name := fmt.Sprintf(segmentPattern, next)
		if err := atomicWrite(filepath.Join(dir, name), func(f *os.File) error {
			return kb.writeInstancesByID(f, delta)
		}); err != nil {
			return Manifest{}, err
		}
		_, first := kb.InstanceProvenance(delta[0])
		_, last := kb.InstanceProvenance(delta[len(delta)-1])
		chain = append(chain, SegmentInfo{File: name, Instances: len(delta), FirstEpoch: first, LastEpoch: last})
		next++
		if snapshotFault != nil {
			if err := snapshotFault("segment"); err != nil {
				return Manifest{}, err
			}
		}
	}
	m.Segments = chain
	m.NextSegment = next

	if err := writeManifest(dir, m); err != nil {
		return Manifest{}, err
	}
	removeUnreferenced(dir, m)
	return m, nil
}

// writeManifest commits the manifest atomically (temp-file+rename with
// file and directory fsync) — the snapshot's single commit point.
func writeManifest(dir string, m Manifest) error {
	raw, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fmt.Errorf("kb: encoding manifest: %w", err)
	}
	raw = append(raw, '\n')
	return atomicWrite(filepath.Join(dir, snapshotManifestFile), func(f *os.File) error {
		_, werr := f.Write(raw)
		return werr
	})
}

// removeUnreferenced deletes instance files in dir that the committed
// manifest does not list — segments a crashed or superseded save left
// behind, and stale atomicWrite temporaries. Best effort: a file that
// cannot be removed is retried by the next save or compaction, and never
// corrupts the snapshot.
func removeUnreferenced(dir string, m Manifest) {
	keep := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		keep[seg.File] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || keep[name] || name == snapshotManifestFile {
			continue
		}
		stale := (strings.HasPrefix(name, "segment-") && strings.HasSuffix(name, ".ndjson")) ||
			strings.Contains(name, ".tmp")
		if stale {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// atomicWrite writes path via a temporary sibling file and a rename, with
// an fsync before the rename so the content is durable when the name is.
func atomicWrite(path string, fill func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("kb: creating temp file for %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("kb: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kb: syncing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kb: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("kb: committing %s: %w", path, err)
	}
	// Fsync the parent directory so the rename itself is durable — without
	// it a power loss can roll back the name while keeping the content (or
	// the reverse), breaking the segments-then-manifest commit ordering.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("kb: opening dir of %s: %w", path, err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("kb: syncing dir of %s: %w", path, err)
	}
	return nil
}

// ReadManifest reads the manifest of a snapshot directory without loading
// instances. A missing manifest returns ErrNoSnapshot.
func ReadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotManifestFile))
	if errors.Is(err, fs.ErrNotExist) {
		return Manifest{}, ErrNoSnapshot
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("kb: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("kb: decoding manifest: %w", err)
	}
	return m, nil
}

// LoadSnapshot appends a snapshot's ingested instances to the KB by
// replaying its segment chain in order, and returns its manifest. The KB
// must hold exactly the seed world the snapshot was taken against (same
// seed instance count, no ingested instances yet); a mismatch returns an
// error rather than silently duplicating or misaligning instance IDs. A
// directory without a manifest returns ErrNoSnapshot, which callers
// treat as a cold start. A manifest that fails checkChain is refused
// before any segment is read.
func (kb *KB) LoadSnapshot(dir string) (Manifest, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return Manifest{}, err
	}
	if err := checkChain(m); err != nil {
		return Manifest{}, err
	}
	if got := kb.NumInstances(); got != m.SeedInstances {
		return Manifest{}, fmt.Errorf("kb: snapshot expects %d seed instances, KB has %d (world mismatch?)",
			m.SeedInstances, got)
	}
	total := 0
	for _, seg := range m.Segments {
		f, err := os.Open(filepath.Join(dir, seg.File))
		if err != nil {
			return Manifest{}, fmt.Errorf("kb: opening snapshot segment: %w", err)
		}
		before := kb.NumInstances()
		err = kb.ReadInstances(f)
		f.Close()
		if err != nil {
			return Manifest{}, fmt.Errorf("kb: segment %s: %w", seg.File, err)
		}
		if got := kb.NumInstances() - before; got != seg.Instances {
			return Manifest{}, fmt.Errorf("kb: segment %s lists %d instances, file held %d", seg.File, seg.Instances, got)
		}
		total += seg.Instances
	}
	if total != m.Instances {
		return Manifest{}, fmt.Errorf("kb: snapshot manifest lists %d instances, chain held %d", m.Instances, total)
	}
	return m, nil
}

// CompactSnapshot merges dir's segment chain into a single segment and
// commits the shortened manifest, returning it. The merged segment is
// written first and the manifest last, so a crash mid-compaction leaves
// the old chain loadable (plus an orphan merged file the next compaction
// or save removes). A chain of at most one segment is already compact
// and returns unchanged. Instance bytes are copied verbatim, so
// compaction can never alter what LoadSnapshot reconstructs.
func CompactSnapshot(dir string) (Manifest, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return Manifest{}, err
	}
	if err := checkChain(m); err != nil {
		return Manifest{}, err
	}
	chain := m.Segments
	if len(chain) <= 1 {
		removeUnreferenced(dir, m)
		return m, nil
	}

	next := m.NextSegment
	if next < 1 {
		next = 1
	}
	merged := SegmentInfo{File: fmt.Sprintf(segmentPattern, next)}
	for _, seg := range chain {
		merged.Instances += seg.Instances
		if seg.FirstEpoch > 0 && (merged.FirstEpoch == 0 || seg.FirstEpoch < merged.FirstEpoch) {
			merged.FirstEpoch = seg.FirstEpoch
		}
		if seg.LastEpoch > merged.LastEpoch {
			merged.LastEpoch = seg.LastEpoch
		}
	}
	if err := atomicWrite(filepath.Join(dir, merged.File), func(f *os.File) error {
		lines := 0
		w := bufio.NewWriter(f)
		for _, seg := range chain {
			n, err := appendSegment(w, filepath.Join(dir, seg.File))
			if err != nil {
				return err
			}
			lines += n
		}
		if lines != merged.Instances {
			return fmt.Errorf("chain holds %d instance lines, manifest lists %d", lines, merged.Instances)
		}
		return w.Flush()
	}); err != nil {
		return Manifest{}, err
	}
	if snapshotFault != nil {
		if err := snapshotFault("compact-merge"); err != nil {
			return Manifest{}, err
		}
	}

	m.Format = snapshotFormatSegmented
	m.Segments = []SegmentInfo{merged}
	m.NextSegment = next + 1
	if merged.LastEpoch > 0 {
		m.CompactedAt = merged.LastEpoch
	} else {
		// The merged segments recorded no ingest epochs (the bounds are
		// optional diagnostics); fall back to the engine bookkeeping.
		for _, e := range m.Epochs {
			if e > m.CompactedAt {
				m.CompactedAt = e
			}
		}
	}
	if err := writeManifest(dir, m); err != nil {
		return Manifest{}, err
	}
	removeUnreferenced(dir, m)
	return m, nil
}

// appendSegment copies one segment's lines into w, returning how many
// instance lines it held.
func appendSegment(w io.Writer, path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		if _, err := w.Write(sc.Bytes()); err != nil {
			return lines, err
		}
		if _, err := w.Write([]byte{'\n'}); err != nil {
			return lines, err
		}
		lines++
	}
	return lines, sc.Err()
}
