// Package match implements the schema matching step of the pipeline (§3.1):
// data type detection, label attribute detection, table-to-class matching,
// and attribute-to-property matching with five matchers (KB-Overlap,
// KB-Label, KB-Duplicate, WT-Label, WT-Duplicate) aggregated by a learned
// weighted average with per-property thresholds.
package match

import (
	"sync"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/webtable"
)

// ColRef addresses one attribute column of one table.
type ColRef struct {
	Table int
	Col   int
}

// Context carries the inputs available to the matchers. The duplicate-based
// matchers (KB-Duplicate, WT-Duplicate) and WT-Label additionally need the
// outputs of a previous pipeline iteration; those fields are nil during the
// first iteration and the corresponding matchers then score zero.
type Context struct {
	KB     *kb.KB
	Corpus *webtable.Corpus
	// Class is the class the current table was matched to.
	Class kb.ClassID

	// RowInstance maps rows to existing KB instances (output of the new
	// detection component of the previous iteration).
	RowInstance map[webtable.RowRef]kb.InstanceID
	// RowCluster maps rows to cluster IDs (output of the row clustering
	// of the previous iteration).
	RowCluster map[webtable.RowRef]int
	// Prelim is the preliminary attribute-to-property mapping from the
	// previous matching run.
	Prelim map[ColRef]kb.PropertyID

	// Thresholds are the data-type equivalence thresholds in effect.
	Thresholds dtype.Thresholds

	// caches holds the lazily built matcher caches behind a mutex, so
	// matching may run for many tables concurrently over one context. The
	// pointer is shared by shallow copies of the context (e.g. the copy
	// Learn takes), never across iteration boundaries.
	caches *ctxCaches
}

// ctxCaches bundles the lazily built caches of one matching context. All
// three are built under mu; readers take the shared lock so cache hits on
// the matching hot path do not serialize the worker pool.
//
// The KB property profiles depend on the KB's instances, which may grow
// between ingest epochs (the engine writes new entities back). kbVersion
// records the kb.Version the profiles were built at; a version mismatch
// drops them so they are rebuilt over the grown KB. The KB must not grow
// while a matching pass is in flight — the engine only writes back after
// its iterations complete, so invalidation happens between passes.
type ctxCaches struct {
	mu         sync.RWMutex
	kbVersion  uint64
	kbProfiles map[kb.ClassID]map[kb.PropertyID]*propProfile
	wtLabels   map[kb.PropertyID]map[string]float64
	wtDone     bool
	clusterVal map[clusterPropKey][]tableValue
}

// tableValue is a parsed cell value tagged with the table it came from.
type tableValue struct {
	v     dtype.Value
	table int
}

// NewContext builds a first-iteration context.
func NewContext(k *kb.KB, corpus *webtable.Corpus) *Context {
	return &Context{
		KB:         k,
		Corpus:     corpus,
		Thresholds: dtype.DefaultThresholds(),
		caches:     &ctxCaches{},
	}
}

// WithIteration returns a copy of the context enriched with the outputs of
// a previous pipeline iteration, enabling the duplicate-based and
// corpus-based matchers: its attribute mapping (table → column → property)
// becomes Prelim, a copy of its row-to-cluster assignment RowCluster, and
// rowInstance RowInstance.
func (c *Context) WithIteration(
	mapping map[int]map[int]kb.PropertyID,
	assign map[webtable.RowRef]int,
	rowInstance map[webtable.RowRef]kb.InstanceID,
) *Context {
	prelim := make(map[ColRef]kb.PropertyID)
	for tid, m := range mapping {
		for col, pid := range m {
			prelim[ColRef{Table: tid, Col: col}] = pid
		}
	}
	rowCluster := make(map[webtable.RowRef]int, len(assign))
	for ref, ci := range assign {
		rowCluster[ref] = ci
	}
	out := *c
	out.RowInstance = rowInstance
	out.RowCluster = rowCluster
	out.Prelim = prelim
	// Fresh caches for the parts that depend on iteration outputs (label
	// statistics, cluster value pool); the KB property profiles depend
	// only on the immutable KB and carry over. They are copied into the
	// new cache struct rather than aliased, so each context's mutex
	// guards its own maps.
	out.caches = c.caches.deriveWithProfiles()
	return &out
}

// deriveWithProfiles returns a fresh cache struct seeded with a copy of
// the already-built KB property profiles (the profiles themselves are
// immutable once built and safe to share). The recorded KB version carries
// over, so a stale profile set is still dropped on first use.
func (cc *ctxCaches) deriveWithProfiles() *ctxCaches {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	nc := &ctxCaches{kbVersion: cc.kbVersion}
	if cc.kbProfiles != nil {
		nc.kbProfiles = make(map[kb.ClassID]map[kb.PropertyID]*propProfile, len(cc.kbProfiles))
		for class, byProp := range cc.kbProfiles {
			m := make(map[kb.PropertyID]*propProfile, len(byProp))
			for pid, p := range byProp {
				m[pid] = p
			}
			nc.kbProfiles[class] = m
		}
	}
	return nc
}

type clusterPropKey struct {
	cluster int
	prop    kb.PropertyID
}
