package cluster

import (
	"context"
	"sort"
)

// klj runs the Kernighan-Lin-with-joins refinement (§3.2): cluster pairs
// sharing a block are compared and individual rows are moved between them
// or the clusters merged when that increases the local correlation
// clustering fitness (the sum of pairwise similarities within clusters).
// Each cluster is also compared against an empty set, so that splitting
// rows out of a cluster is possible. Rounds repeat until no operation
// improves the fitness or MaxKLjRounds is reached. Cancellation is checked
// once per round; between rounds the state is a valid (just unrefined)
// clustering.
//
// Evaluations are memoized on cluster membership versions: a pair (or a
// split candidate) whose last evaluation was a complete no-op is skipped
// while both members' versions are unchanged. Skipping is exact whenever
// row similarities are stable across evaluations — an evaluation's outcome
// depends only on the member rows, the checks happen at the pair's position
// in the same deterministic order the unmemoized pass would use, and a
// skipped no-op has no side effects, so the mutation sequence is identical.
// The memos persist across Add batches; there they additionally trust
// no-op verdicts recorded under an earlier PHI model refresh (which
// rewrites row vectors in place and so may drift pair scores of clusters no
// batch touched). That is the intended incremental tradeoff: refinement
// work stays proportional to the batch's neighborhood instead of rescanning
// all retained state each epoch, and a drifted region is re-examined as
// soon as any operation touches one of its clusters.
func (c *clusterer) klj(ctx context.Context) error {
	if c.pairNoop == nil {
		c.pairNoop = make(map[[2]int][2]uint64)
	}
	if c.splitNoop == nil {
		c.splitNoop = make(map[int]uint64)
	}
	for round := 0; round < c.opts.MaxKLjRounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		improved := false
		// Candidate cluster pairs: sharing a block (or all pairs when
		// blocking is off).
		pairs := c.candidatePairs()
		// Snapshot the versions as of this enumeration; committed only
		// after the round completes, so a cancelled round leaves its
		// clusters dirty and the next call re-enumerates their pairs.
		versnap := append([]uint64(nil), c.ver...)
		for _, p := range pairs {
			a, b := c.clusters[p[0]], c.clusters[p[1]]
			if len(a.rows) == 0 || len(b.rows) == 0 {
				continue
			}
			cur := [2]uint64{c.ver[p[0]], c.ver[p[1]]}
			if c.pairNoop[p] == cur {
				continue
			}
			acted := false
			if c.tryMerge(p[0], p[1]) {
				improved, acted = true, true
			} else {
				if c.tryMoves(p[0], p[1]) {
					improved, acted = true, true
				}
				if c.tryMoves(p[1], p[0]) {
					improved, acted = true, true
				}
			}
			if acted {
				delete(c.pairNoop, p)
			} else {
				c.pairNoop[p] = cur
			}
		}
		// Split pass: moving a row out to a singleton improves fitness
		// when its summed similarity to the rest of its cluster is
		// negative. Singletons created during the pass are not revisited
		// until the next round (the range length is captured on entry).
		for ci := range c.clusters {
			if len(c.clusters[ci].rows) < 2 {
				continue
			}
			if c.splitNoop[ci] == c.ver[ci] {
				continue
			}
			if c.trySplit(ci) {
				improved = true
				delete(c.splitNoop, ci)
			} else {
				c.splitNoop[ci] = c.ver[ci]
			}
		}
		// The round completed: clusters enumerated this round are clean as
		// of the snapshot (mutations during the round bumped them past it,
		// so they stay dirty for the next enumeration).
		c.lastKljVer = versnap
		if !improved {
			return nil
		}
	}
	return nil
}

// candidatePairs enumerates cluster ID pairs that share at least one block
// (all pairs when blocking is off) and have at least one member whose
// version moved since the last completed enumeration round, in a
// deterministic order (KLj operations are order-sensitive, so map iteration
// order must not leak into the refinement).
//
// Restricting to pairs with a moved member is exact: a pair of two unmoved
// clusters was enumerated in the round lastKljVer snapshots (their block
// sets are part of the versioned membership, so sharing a block now means
// they shared it then), and that evaluation either acted — bumping a member
// past the snapshot, contradiction — or recorded a pairNoop verdict at
// versions that still stand, which the pair loop would skip anyway.
func (c *clusterer) candidatePairs() [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	for ci := range c.clusters {
		if ci < len(c.lastKljVer) && c.ver[ci] == c.lastKljVer[ci] {
			continue // unmoved since the last completed round
		}
		if len(c.clusters[ci].rows) == 0 {
			continue
		}
		if !c.opts.Blocking {
			for cj := range c.clusters {
				if cj != ci && len(c.clusters[cj].rows) > 0 {
					add(ci, cj)
				}
			}
			continue
		}
		for b := range c.clusters[ci].blocks {
			for cj := range c.blockIndex[b] {
				if cj != ci && len(c.clusters[cj].rows) > 0 {
					add(ci, cj)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// tryMerge merges cluster b into a when the summed inter-cluster
// similarity is positive.
func (c *clusterer) tryMerge(ai, bi int) bool {
	a, b := c.clusters[ai], c.clusters[bi]
	var delta float64
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			delta += c.pairScore(ra, rb)
		}
	}
	if delta <= 0 {
		return false
	}
	for _, rb := range b.rows {
		c.addToCluster(ai, rb)
	}
	b.rows = nil
	c.bump(bi)
	c.moved = true
	return true
}

// tryMoves attempts to move individual rows from cluster src to dst when
// the move increases the local fitness.
func (c *clusterer) tryMoves(srci, dsti int) bool {
	src, dst := c.clusters[srci], c.clusters[dsti]
	moved := false
	for i := 0; i < len(src.rows); i++ {
		row := src.rows[i]
		var toSrc, toDst float64
		for _, other := range src.rows {
			if other != row {
				toSrc += c.pairScore(row, other)
			}
		}
		for _, other := range dst.rows {
			toDst += c.pairScore(row, other)
		}
		if toDst > toSrc && toDst > 0 {
			src.rows = append(src.rows[:i], src.rows[i+1:]...)
			i--
			c.addToCluster(dsti, row)
			moved = true
		}
	}
	if moved {
		c.bump(srci)
		c.moved = true
	}
	return moved
}

// trySplit moves rows with negative attachment out of their cluster into
// fresh singletons (the comparison "with an empty set" of the paper).
func (c *clusterer) trySplit(ci int) bool {
	cl := c.clusters[ci]
	if len(cl.rows) < 2 {
		return false
	}
	split := false
	for i := 0; i < len(cl.rows); i++ {
		row := cl.rows[i]
		var sum float64
		for _, other := range cl.rows {
			if other != row {
				sum += c.pairScore(row, other)
			}
		}
		if sum < 0 {
			cl.rows = append(cl.rows[:i], cl.rows[i+1:]...)
			i--
			c.newCluster(row)
			split = true
		}
	}
	if split {
		c.bump(ci)
		c.moved = true
	}
	return split
}

// pairScore is Scorer.Pair through the Add's ScoreCache: identical floats,
// each distinct directed pair computed at most once per epoch. The
// refinement re-reads the same products many times — a cluster's internal
// attachment sums are recomputed against every block neighbor, and a
// failed merge's cross products are immediately re-read by the move pass —
// and the epoch's next pipeline iteration re-reads every retained pair.
func (c *clusterer) pairScore(ra, rb *Row) float64 {
	return c.cache.pair(ra, rb)
}
