package cluster

import (
	"context"

	"repro/internal/par"
)

// Incremental is a clusterer that accepts rows in batches and retains its
// working state — the cluster membership lists and the block index — so a
// later batch is clustered against everything seen so far instead of
// re-clustering from scratch. The incremental ingestion engine
// (internal/core.Engine) keeps one per class across ingest epochs.
//
// Each Add runs the parallelized greedy pass over the new rows only (their
// block lookups hit the retained block index, so they compare against old
// clusters too) followed by a KLj refinement over the whole state, which
// may also repair earlier assignments. A single Add on a fresh Incremental
// is exactly Cluster.
//
// Incremental is not safe for concurrent use; Clone provides cheap
// isolation for speculative batches.
type Incremental struct {
	c *clusterer
}

// NewIncremental returns an empty incremental clusterer.
func NewIncremental(scorer *Scorer, opts Options) *Incremental {
	opts.Workers = par.Workers(opts.Workers)
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.MaxKLjRounds <= 0 {
		opts.MaxKLjRounds = 4
	}
	return &Incremental{c: &clusterer{
		scorer:     scorer,
		opts:       opts,
		blockIndex: make(map[string]map[int]bool),
		pairNoop:   make(map[[2]int][2]uint64),
		splitNoop:  make(map[int]uint64),
	}}
}

// Add clusters a batch of new rows against the retained state: greedy
// assignment of each new row to its best existing-or-new cluster, then the
// KLj refinement when enabled. Adding an empty batch leaves the state
// untouched.
//
// Pair scores go through cache, which the Adds of one ingest epoch share
// (see ScoreCache); nil scores through a cache private to this call. The
// cached floats are the scorer's own, so the clustering is the same either
// way.
//
// Cancellation checkpoints sit between greedy rows and between KLj rounds;
// a non-nil error means the clusterer state is torn mid-refinement and the
// caller must discard it (the ingestion engine always Adds to a clone, so
// abandoning the clone is enough).
func (inc *Incremental) Add(ctx context.Context, rows []*Row, cache *ScoreCache) error {
	if len(rows) == 0 {
		return nil
	}
	if cache == nil {
		cache = NewScoreCache(nil)
	}
	cache.begin(inc.c.scorer)
	inc.c.cache = cache
	defer func() { inc.c.cache = nil }()
	if err := inc.c.greedy(ctx, rows); err != nil {
		return err
	}
	if inc.c.opts.KLj {
		if err := inc.c.klj(ctx); err != nil {
			return err
		}
	}
	// Compact after every batch so retained state tracks live rows, not
	// history: KLj-emptied clusters and their stale block entries would
	// otherwise accumulate across epochs (and be deep-copied by every
	// Clone). Order-preserving, so the materialized Result is unchanged.
	inc.c.compact()
	return nil
}

// Clone returns an independent deep copy of the clusterer state: Adds on
// the clone never affect the original (the rows themselves are shared and
// immutable). The ingestion engine clones the retained state once per
// pipeline iteration so a refined schema mapping can re-cluster its batch
// without corrupting the persistent baseline.
func (inc *Incremental) Clone() *Incremental {
	src := inc.c
	dst := &clusterer{
		scorer:     src.scorer,
		opts:       src.opts,
		clusters:   make([]*clusterState, len(src.clusters)),
		blockIndex: make(map[string]map[int]bool, len(src.blockIndex)),
		ver:        append([]uint64(nil), src.ver...),
		verTick:    src.verTick,
		pairNoop:   make(map[[2]int][2]uint64, len(src.pairNoop)),
		splitNoop:  make(map[int]uint64, len(src.splitNoop)),
		moved:      src.moved,
		lastKljVer: append([]uint64(nil), src.lastKljVer...),
	}
	for p, v := range src.pairNoop {
		dst.pairNoop[p] = v
	}
	for ci, v := range src.splitNoop {
		dst.splitNoop[ci] = v
	}
	for i, cl := range src.clusters {
		nc := &clusterState{
			rows:   make([]*Row, len(cl.rows)),
			blocks: make(map[string]bool, len(cl.blocks)),
		}
		copy(nc.rows, cl.rows)
		for b := range cl.blocks {
			nc.blocks[b] = true
		}
		dst.clusters[i] = nc
	}
	for b, members := range src.blockIndex {
		m := make(map[int]bool, len(members))
		for ci := range members {
			m[ci] = true
		}
		dst.blockIndex[b] = m
	}
	return &Incremental{c: dst}
}

// NumRows returns the number of rows currently clustered.
func (inc *Incremental) NumRows() int {
	n := 0
	for _, cl := range inc.c.clusters {
		n += len(cl.rows)
	}
	return n
}

// Result materializes the current state as a Clustering with compacted
// cluster IDs. The state is not consumed; Add may be called again after.
func (inc *Incremental) Result() *Clustering {
	return inc.c.result()
}
