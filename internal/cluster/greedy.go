package cluster

import (
	"context"
	"sort"

	"repro/internal/par"
	"repro/internal/webtable"
)

// Clustering is the result of row clustering: a cluster ID per row and the
// cluster membership lists.
type Clustering struct {
	// Assign maps each row to its cluster ID.
	Assign map[webtable.RowRef]int
	// Clusters lists the member rows per cluster ID.
	Clusters [][]*Row
}

// NumClusters returns the number of non-empty clusters.
func (c *Clustering) NumClusters() int {
	n := 0
	for _, m := range c.Clusters {
		if len(m) > 0 {
			n++
		}
	}
	return n
}

// Options configures the clustering run.
type Options struct {
	// Workers is the parallelism of the greedy pass (default GOMAXPROCS;
	// 1 runs fully serial).
	Workers int
	// BatchSize is the number of rows assigned per parallel batch; larger
	// batches are faster but make more correctable mistakes (default 64).
	BatchSize int
	// Blocking enables label-based comparison blocking (default on via
	// NewOptions; turning it off compares every row with every cluster).
	Blocking bool
	// KLj enables the Kernighan-Lin-with-joins refinement pass.
	KLj bool
	// MaxKLjRounds bounds the refinement (default 4).
	MaxKLjRounds int
}

// NewOptions returns the default clustering options: parallel greedy with
// blocking and KLj refinement.
func NewOptions() Options {
	return Options{Blocking: true, KLj: true, BatchSize: 64, MaxKLjRounds: 4}
}

// clusterState is the mutable working state of one cluster.
type clusterState struct {
	rows   []*Row
	blocks map[string]bool
}

// ClusterCtx partitions the rows so that rows describing the same instance
// share a cluster, honouring ctx's cancellation between batches. It runs
// the parallelized greedy correlation clustering and, when enabled, the
// KLj refinement. It is the one-shot form of the Incremental clusterer: a
// single Add over a fresh Incremental produces exactly the same
// clustering. A cancelled run returns the context's error and no
// clustering.
func ClusterCtx(ctx context.Context, rows []*Row, scorer *Scorer, opts Options) (*Clustering, error) {
	inc := NewIncremental(scorer, opts)
	if err := inc.Add(ctx, rows, nil); err != nil {
		return nil, err
	}
	return inc.Result(), nil
}

type clusterer struct {
	scorer   *Scorer
	opts     Options
	clusters []*clusterState
	// blockIndex maps a block label to the set of cluster IDs whose rows
	// carry that block.
	blockIndex map[string]map[int]bool
	// ver holds a membership version per cluster (parallel to clusters),
	// bumped through verTick on every row addition or removal, so equal
	// versions always mean identical membership. KLj's no-op memos key on
	// these versions; see klj.go for the exactness argument.
	ver     []uint64
	verTick uint64
	// pairNoop records the member versions at a cluster pair's last fully
	// no-op KLj evaluation; while both versions stand, re-evaluating the
	// pair would provably repeat the no-op and is skipped.
	pairNoop map[[2]int][2]uint64
	// splitNoop records the version at a cluster's last no-op split pass.
	splitNoop map[int]uint64
	// cache is the epoch's score cache while an Add runs (nil otherwise).
	cache *ScoreCache
	// moved is set by any KLj mutation (merge, move, split) since the last
	// compact. Greedy additions keep the block bookkeeping exact
	// incrementally and never empty a cluster, so compact is skipped while
	// moved is unset.
	moved bool
	// lastKljVer snapshots each cluster's version as of its last completed
	// KLj enumeration round (parallel to clusters; missing tail entries
	// mean "never enumerated"). candidatePairs only walks the blocks of
	// clusters whose version moved past this snapshot — every pair of two
	// unmoved clusters provably carries a valid pairNoop verdict (see
	// candidatePairs), so enumerating it would only re-skip it.
	lastKljVer []uint64
}

// bump marks cluster ci's membership as changed. Versions are draws from a
// shared monotonic counter, never reused, so a stored version can only
// match a cluster whose membership is unchanged since it was stored.
func (c *clusterer) bump(ci int) {
	c.verTick++
	c.ver[ci] = c.verTick
}

// bestScratch is the per-call working state of bestCluster: a visited set,
// the sorted candidate list and the worker's metric memo. It is reused
// through the Add's ScoreCache, so the memo lives for the epoch; seen is
// cleared on the way out (by the candidates just gathered, so clearing is
// O(candidates)).
type bestScratch struct {
	seen map[int]bool
	cand []int
	memo *metricMemo
}

// greedy sequentially applies batches; scores within a batch are computed
// in parallel against a snapshot of the clusters, so batch members cannot
// see each other — the "errors during clustering" the paper accepts and
// repairs with KLj. Cancellation stops a batch's scoring between rows, and
// the batch is then dropped before any of its decisions is applied, so the
// state never holds a half-applied batch.
func (c *clusterer) greedy(ctx context.Context, rows []*Row) error {
	type decision struct {
		row     *Row
		cluster int // -1: create new
		score   float64
	}
	for start := 0; start < len(rows); start += c.opts.BatchSize {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + c.opts.BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		batch := rows[start:end]
		decisions := make([]decision, len(batch))
		err := par.ForEachCtx(ctx, c.opts.Workers, len(batch), func(i int) {
			best, score := c.bestCluster(batch[i])
			decisions[i] = decision{row: batch[i], cluster: best, score: score}
		})
		if err != nil {
			return err
		}
		for _, d := range decisions {
			if d.cluster >= 0 && d.score > 0 {
				c.addToCluster(d.cluster, d.row)
			} else {
				c.newCluster(d.row)
			}
		}
	}
	return nil
}

// bestCluster finds the cluster with the highest summed similarity to the
// row, considering only clusters sharing a block when blocking is enabled.
// Candidates are visited in ascending cluster ID so that score ties resolve
// deterministically (map iteration order must not leak into the result).
func (c *clusterer) bestCluster(row *Row) (int, float64) {
	sc := c.cache.getScratch()
	defer c.cache.putScratch(sc)
	best, bestScore := -1, 0.0
	score := func(ci int) {
		cl := c.clusters[ci]
		var sum float64
		for _, other := range cl.rows {
			sum += c.scorer.pairMemo(row, other, sc.memo)
		}
		if sum > bestScore {
			best, bestScore = ci, sum
		}
	}
	if !c.opts.Blocking {
		// Without blocking every cluster is a candidate; iterate
		// directly, already in ascending ID order.
		for ci := range c.clusters {
			score(ci)
		}
		return best, bestScore
	}
	cand := sc.cand[:0]
	for _, b := range row.Blocks {
		for ci := range c.blockIndex[b] {
			if !sc.seen[ci] {
				sc.seen[ci] = true
				cand = append(cand, ci)
			}
		}
	}
	sort.Ints(cand)
	for _, ci := range cand {
		delete(sc.seen, ci)
		score(ci)
	}
	sc.cand = cand
	return best, bestScore
}

func (c *clusterer) newCluster(row *Row) int {
	ci := len(c.clusters)
	cl := &clusterState{rows: []*Row{row}, blocks: make(map[string]bool)}
	c.clusters = append(c.clusters, cl)
	c.ver = append(c.ver, 0)
	c.bump(ci)
	c.indexBlocks(ci, row)
	return ci
}

func (c *clusterer) addToCluster(ci int, row *Row) {
	c.clusters[ci].rows = append(c.clusters[ci].rows, row)
	c.bump(ci)
	c.indexBlocks(ci, row)
}

func (c *clusterer) indexBlocks(ci int, row *Row) {
	cl := c.clusters[ci]
	for _, b := range row.Blocks {
		cl.blocks[b] = true
		if c.blockIndex[b] == nil {
			c.blockIndex[b] = make(map[int]bool)
		}
		c.blockIndex[b][ci] = true
	}
}

// result materializes the final clustering with compacted cluster IDs.
func (c *clusterer) result() *Clustering {
	out := &Clustering{Assign: make(map[webtable.RowRef]int)}
	for _, cl := range c.clusters {
		if len(cl.rows) == 0 {
			continue
		}
		id := len(out.Clusters)
		members := make([]*Row, len(cl.rows))
		copy(members, cl.rows)
		sort.Slice(members, func(i, j int) bool { return refLess(members[i].Ref, members[j].Ref) })
		out.Clusters = append(out.Clusters, members)
		for _, r := range members {
			out.Assign[r.Ref] = id
		}
	}
	return out
}
