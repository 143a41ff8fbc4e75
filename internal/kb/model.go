package kb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dtype"
	"repro/internal/index"
	"repro/internal/strsim"
)

// ClassID identifies a class in the knowledge base ontology.
type ClassID string

// Well-known first-level and evaluation classes, mirroring the paper's
// selection: one class each from Agent, Work and Place.
const (
	ClassThing      ClassID = "owl:Thing"
	ClassAgent      ClassID = "dbo:Agent"
	ClassPerson     ClassID = "dbo:Person"
	ClassAthlete    ClassID = "dbo:Athlete"
	ClassGFPlayer   ClassID = "dbo:GridironFootballPlayer"
	ClassWork       ClassID = "dbo:Work"
	ClassMusicWork  ClassID = "dbo:MusicalWork"
	ClassSong       ClassID = "dbo:Song"
	ClassPlace      ClassID = "dbo:Place"
	ClassPopPlace   ClassID = "dbo:PopulatedPlace"
	ClassSettlement ClassID = "dbo:Settlement"
	// ClassRegion and ClassMountain exist so that table-to-class matching
	// has realistic confusable neighbours for Settlement (§5 error
	// analysis: "the new entity does not describe a settlement, but a
	// different place, like a region or a mountain").
	ClassRegion   ClassID = "dbo:Region"
	ClassMountain ClassID = "dbo:Mountain"
)

// ProvenanceIngest marks instances written back into the KB by the
// incremental ingestion engine (core.Engine), as opposed to seed instances
// loaded or generated at construction time (empty provenance).
const ProvenanceIngest = "ltee:ingest"

// PropertyID identifies a property of the knowledge base schema.
type PropertyID string

// Property describes one property of a class schema.
type Property struct {
	ID    PropertyID
	Label string
	// Kind is the fine-grained data type of the property's values.
	Kind dtype.Kind
	// AltLabels are alternative header labels seen in the wild; the
	// KB-Label matcher compares column headers against Label and these.
	AltLabels []string
}

// Class is a node in the ontology with an attached property schema.
type Class struct {
	ID     ClassID
	Label  string
	Parent ClassID // empty for the root
	// Properties lists the schema of the class (only evaluation classes
	// carry schemas; intermediate classes have none).
	Properties []Property
}

// InstanceID identifies an instance.
type InstanceID int

// Instance is one entity in the knowledge base.
type Instance struct {
	ID    InstanceID
	Class ClassID
	// Labels holds the primary label first, then aliases.
	Labels []string
	// Abstract is a short free-text description (used by the BOW
	// entity-to-instance metric).
	Abstract string
	// Facts maps property to value. The model keeps one value per
	// property, as the paper's density tables do.
	Facts map[PropertyID]dtype.Value
	// Popularity substitutes the count of incoming Wikipedia page links.
	Popularity float64
	// Provenance records how the instance entered the KB: empty for seed
	// instances, ProvenanceIngest for pipeline write-back.
	Provenance string
	// IngestEpoch is the ingestion epoch that wrote the instance back
	// (0 for seed instances).
	IngestEpoch int
}

// Label returns the primary label or "" for an unlabeled instance.
func (in *Instance) Label() string {
	if len(in.Labels) == 0 {
		return ""
	}
	return in.Labels[0]
}

// KB is an in-memory knowledge base. The zero value is not usable; call
// New. All methods are safe for concurrent use, including growth via
// AddInstance/AddClass while readers search. Instances live in per-class
// columnar stores (columnar.go); the *Instance values returned by
// Instance are materialized copies the caller may retain or mutate
// without affecting the KB.
type KB struct {
	mu      sync.RWMutex
	version atomic.Uint64
	classes map[ClassID]*Class
	// strs interns instance labels and fact string payloads for the
	// columnar stores. Mutated only under mu.Lock; read under mu.RLock.
	strs *strsim.Interner
	// storeList holds one columnar store per class that has instances;
	// storeOf maps a class to its position. locs maps a global
	// InstanceID to (store, row).
	storeList []*classStore
	storeOf   map[ClassID]uint32
	locs      []instLoc
	// ingested lists the IDs of write-back instances (Provenance ==
	// ProvenanceIngest) in insertion order — the persistence order of
	// snapshot segments.
	ingested []InstanceID
	// globalIx is the label index over every instance label (§3.4
	// candidate selection). The pipeline's Candidates path uses its
	// sub-linear Retrieve; the serving path's SearchInstances its exact
	// Search.
	globalIx *index.Index
}

// New returns an empty knowledge base preloaded with the ontology used
// throughout the reproduction (Thing → Agent/Work/Place → … → the three
// evaluation classes plus the confusable Place neighbours).
func New() *KB {
	kb := &KB{
		classes:  make(map[ClassID]*Class),
		strs:     strsim.NewInterner(),
		storeOf:  make(map[ClassID]uint32),
		globalIx: index.New(),
	}
	for _, c := range defaultOntology() {
		kb.AddClass(c)
	}
	return kb
}

// storeFor returns the columnar store of class id, creating it (with the
// class's current schema as column set) on first instance. Caller holds
// the write lock.
func (kb *KB) storeFor(id ClassID) *classStore {
	if si, ok := kb.storeOf[id]; ok {
		return kb.storeList[si]
	}
	st := newClassStore(id, kb.classes[id])
	kb.storeOf[id] = uint32(len(kb.storeList))
	kb.storeList = append(kb.storeList, st)
	return st
}

// loc resolves an InstanceID to its store and row. Caller holds at least
// the read lock.
func (kb *KB) loc(id InstanceID) (*classStore, int32, bool) {
	if id < 0 || int(id) >= len(kb.locs) {
		return nil, 0, false
	}
	l := kb.locs[id]
	return kb.storeList[l.store], l.row, true
}

func defaultOntology() []*Class {
	return []*Class{
		{ID: ClassThing, Label: "Thing"},
		{ID: ClassAgent, Label: "Agent", Parent: ClassThing},
		{ID: ClassPerson, Label: "Person", Parent: ClassAgent},
		{ID: ClassAthlete, Label: "Athlete", Parent: ClassPerson},
		{ID: ClassGFPlayer, Label: "Gridiron Football Player", Parent: ClassAthlete,
			Properties: GFPlayerSchema()},
		{ID: ClassWork, Label: "Work", Parent: ClassThing},
		{ID: ClassMusicWork, Label: "Musical Work", Parent: ClassWork},
		{ID: ClassSong, Label: "Song", Parent: ClassMusicWork, Properties: SongSchema()},
		{ID: ClassPlace, Label: "Place", Parent: ClassThing},
		{ID: ClassPopPlace, Label: "Populated Place", Parent: ClassPlace},
		{ID: ClassSettlement, Label: "Settlement", Parent: ClassPopPlace,
			Properties: SettlementSchema()},
		{ID: ClassRegion, Label: "Region", Parent: ClassPopPlace},
		{ID: ClassMountain, Label: "Mountain", Parent: ClassPlace},
	}
}

// Version returns a monotonic counter bumped on every mutation of the KB
// (AddInstance, AddClass). Caches built over KB contents record the version
// they were built at and must invalidate when it changes.
func (kb *KB) Version() uint64 { return kb.version.Load() }

// AddClass registers a class. Re-adding a class replaces it.
func (kb *KB) AddClass(c *Class) {
	kb.mu.Lock()
	kb.classes[c.ID] = c
	kb.mu.Unlock()
	kb.version.Add(1)
}

// Class returns the class with the given ID, or nil.
func (kb *KB) Class(id ClassID) *Class {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.classes[id]
}

// Classes returns all class IDs in deterministic order.
func (kb *KB) Classes() []ClassID {
	kb.mu.RLock()
	ids := make([]ClassID, 0, len(kb.classes))
	for id := range kb.classes {
		ids = append(ids, id)
	}
	kb.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Ancestors returns the chain of parent classes from id (exclusive) to the
// root (inclusive).
func (kb *KB) Ancestors(id ClassID) []ClassID {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.ancestorsLocked(id)
}

func (kb *KB) ancestorsLocked(id ClassID) []ClassID {
	var out []ClassID
	c := kb.classes[id]
	for c != nil && c.Parent != "" {
		out = append(out, c.Parent)
		c = kb.classes[c.Parent]
	}
	return out
}

// SharesParent reports whether class a equals b or either is an ancestor of
// the other or they share an immediate parent. Candidate selection uses
// this relaxed check ("must be of the class of the created entity or share
// one parent class").
func (kb *KB) SharesParent(a, b ClassID) bool {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return kb.sharesParentLocked(a, b)
}

func (kb *KB) sharesParentLocked(a, b ClassID) bool {
	if a == b {
		return true
	}
	ancA := append([]ClassID{a}, kb.ancestorsLocked(a)...)
	ancB := append([]ClassID{b}, kb.ancestorsLocked(b)...)
	setA := make(map[ClassID]bool, len(ancA))
	for _, x := range ancA {
		setA[x] = true
	}
	for _, x := range ancB {
		if x == ClassThing {
			continue // everything shares Thing; too weak
		}
		if setA[x] {
			return true
		}
	}
	ca, cb := kb.classes[a], kb.classes[b]
	return ca != nil && cb != nil && ca.Parent != "" && ca.Parent == cb.Parent
}

// TypeOverlap computes the paper's TYPE metric: the overlap of the
// candidate instance's class chain with the entity's class chain, as the
// Jaccard of the two ancestor sets (root excluded).
func (kb *KB) TypeOverlap(a, b ClassID) float64 {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	chain := func(id ClassID) map[ClassID]bool {
		s := map[ClassID]bool{id: true}
		for _, x := range kb.ancestorsLocked(id) {
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
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Property looks up a property in the schema of class id (or its ancestors).
func (kb *KB) Property(id ClassID, pid PropertyID) (Property, bool) {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	for c := kb.classes[id]; c != nil; c = kb.classes[c.Parent] {
		for _, p := range c.Properties {
			if p.ID == pid {
				return p, true
			}
		}
		if c.Parent == "" {
			break
		}
	}
	return Property{}, false
}

// Schema returns the property list of class id (schema of the class itself;
// evaluation classes carry the full schema directly).
func (kb *KB) Schema(id ClassID) []Property {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	if c := kb.classes[id]; c != nil {
		return c.Properties
	}
	return nil
}

// AddInstance stores an instance into its class's columnar store,
// assigns it an ID, and indexes its labels. The instance's Facts map may
// be nil. The passed *Instance is copied out — the KB keeps no reference
// to it. Safe to call while other goroutines read or search the KB: the
// instance becomes visible to ID lookups before its labels enter the
// index, so a concurrent search never retrieves a document without a
// backing instance.
func (kb *KB) AddInstance(in *Instance) InstanceID {
	return kb.AddInstances([]*Instance{in})[0]
}

// AddInstances stores a batch of instances, equivalent to calling
// AddInstance for each in order: every instance is stored, and so visible
// to ID lookups, before any of their labels enter the index in one
// AddBatch. The version counter is bumped once for the whole batch.
func (kb *KB) AddInstances(ins []*Instance) []InstanceID {
	if len(ins) == 0 {
		return nil
	}
	kb.mu.Lock()
	ids := make([]InstanceID, len(ins))
	for i, in := range ins {
		ids[i] = kb.storeLocked(in)
	}
	kb.mu.Unlock()

	var entries []index.Entry
	for _, in := range ins {
		for _, l := range in.Labels {
			entries = append(entries, index.Entry{Doc: int(in.ID), Label: l})
		}
	}
	kb.globalIx.AddBatch(entries)
	kb.version.Add(1)
	return ids
}

// storeLocked assigns in the next ID and stores it in its class's columnar
// store, without indexing its labels. Caller holds the write lock.
func (kb *KB) storeLocked(in *Instance) InstanceID {
	in.ID = InstanceID(len(kb.locs))
	st := kb.storeFor(in.Class)
	row := st.add(in, kb.strs)
	kb.locs = append(kb.locs, instLoc{store: kb.storeOf[in.Class], row: row})
	if in.Provenance == ProvenanceIngest {
		kb.ingested = append(kb.ingested, in.ID)
	}
	return in.ID
}

// Instance returns a materialized view of the instance with the given
// ID, or nil. The returned copy owns its Labels slice and Facts map; the
// caller may retain or mutate it without affecting the KB. Hot paths
// should prefer the field accessors (Fact, InstanceClass, InstanceLabel,
// ForEachFact, ...), which read the columns without materializing.
func (kb *KB) Instance(id InstanceID) *Instance {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	st, row, ok := kb.loc(id)
	if !ok {
		return nil
	}
	return st.materialize(row, kb.strs)
}

// NumInstances returns the total number of instances.
func (kb *KB) NumInstances() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.locs)
}

// NumIngested returns the number of write-back instances (Provenance ==
// ProvenanceIngest) — the length of the persistence order snapshot
// segments follow.
func (kb *KB) NumIngested() int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return len(kb.ingested)
}

// InstancesOf returns the instance IDs of class id (not descendants), in
// insertion order. The returned slice is a copy the caller may retain.
func (kb *KB) InstancesOf(id ClassID) []InstanceID {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	var ids []InstanceID
	if si, ok := kb.storeOf[id]; ok {
		ids = kb.storeList[si].ids
	}
	out := make([]InstanceID, len(ids))
	copy(out, ids)
	return out
}

// NumInstancesOf returns the instance count of class id (not
// descendants) without copying the ID list.
func (kb *KB) NumInstancesOf(id ClassID) int {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	if si, ok := kb.storeOf[id]; ok {
		return len(kb.storeList[si].ids)
	}
	return 0
}

// CandidateOpts configures Candidates.
type CandidateOpts struct {
	// K is the number of index hits to retrieve (default 20).
	K int
	// Class restricts candidates to instances whose class equals or
	// shares a parent with this class; empty means no restriction.
	Class ClassID
}

// SearchHit pairs a retrieved instance with its label-index retrieval
// score (TF-IDF over shared tokens, fuzzy-expanded per token).
type SearchHit struct {
	Instance InstanceID
	Score    float64
}

// SearchInstances returns up to opts.K instances whose labels best match
// the query via the global label index's exact search, with retrieval
// scores, applying the class restriction of §3.4. The serve layer's fuzzy
// search endpoint is a thin wrapper over this, and it is the reference
// Candidates is held to.
//
// The class filter is applied to the global top 3·K hits (the paper's
// bounded candidate-selection heuristic, shared with Candidates so serving
// and pipeline retrieval agree): a class whose matches all rank below
// 3·K other-class hits for the query can come back empty even though
// matching instances exist.
//
// Cancelling ctx (a caller's HTTP request context, typically) makes the
// search return the context's error before the index walk and before the
// hit-filtering pass; a nil ctx means no cancellation.
func (kb *KB) SearchInstances(ctx context.Context, label string, opts CandidateOpts) ([]SearchHit, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	var out []SearchHit
	kb.filterHits(kb.globalIx.Search(label, 3*candidateK(opts)), opts, func(id InstanceID, score float64) {
		out = append(out, SearchHit{Instance: id, Score: score})
	})
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Candidates returns candidate instances for a label using the label index,
// applying the class restriction of §3.4. This is the pipeline's hottest
// retrieval path (blocking, implicit attributes, new detection), so it
// retrieves through the index's sub-linear Retrieve instead of the exact
// Search and emits IDs without scores. Retrieve re-ranks with the exact
// scorer, so the result equals SearchInstances' IDs whenever its
// candidates cover the exact top hits (the equivalence tests assert they
// do over the seed scenarios).
func (kb *KB) Candidates(label string, opts CandidateOpts) []InstanceID {
	var out []InstanceID
	kb.filterHits(kb.globalIx.Retrieve(label, 3*candidateK(opts)), opts, func(id InstanceID, _ float64) {
		out = append(out, id)
	})
	return out
}

// candidateK is opts.K with its default applied.
func candidateK(opts CandidateOpts) int {
	if opts.K <= 0 {
		return 20
	}
	return opts.K
}

// filterHits walks ranked index hits, calling visit for each of up to
// opts.K instances that pass the class restriction.
func (kb *KB) filterHits(hits []index.Hit, opts CandidateOpts, visit func(InstanceID, float64)) {
	k := candidateK(opts)
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	n := 0
	for _, h := range hits {
		if h.Doc < 0 || h.Doc >= len(kb.locs) {
			continue
		}
		class := kb.storeList[kb.locs[h.Doc].store].class
		if opts.Class != "" && !kb.sharesParentLocked(class, opts.Class) {
			continue
		}
		visit(InstanceID(h.Doc), h.Score)
		n++
		if n == k {
			break
		}
	}
}

// String summarizes the KB for logging.
func (kb *KB) String() string {
	kb.mu.RLock()
	defer kb.mu.RUnlock()
	return fmt.Sprintf("KB{classes: %d, instances: %d}", len(kb.classes), len(kb.locs))
}

// SortedPropertyIDs returns a property-keyed map's keys in ascending
// order — the fixed iteration order shared by every component whose float
// accumulations must not depend on map iteration order (the IMPLICIT_ATT
// metrics of row clustering and new detection).
func SortedPropertyIDs[V any](m map[PropertyID]V) []PropertyID {
	if len(m) == 0 {
		return nil
	}
	pids := make([]PropertyID, 0, len(m))
	for pid := range m {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}
