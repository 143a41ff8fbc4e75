package cluster

import "sync"

// ScoreCache memoizes row-pair scoring across the Incremental.Adds of one
// ingest epoch. It holds:
//   - the directed row-pair scores of the serial KLj refinement;
//   - behind them, one metricMemo of PHI table-pair values and fact-value
//     string similarities;
//   - the per-worker scratch of the parallel greedy pass, each with a
//     metricMemo of its own.
//
// Every entry is exact for the cache's lifetime. Rows are immutable once
// built, and value similarity is a pure function of two strings. The one
// row field that does change, a retained row's TableVec, is rewritten only
// when the PHI model's generation moves (a batch added PHI statistics). The
// cache records the generation it was filled under and starts empty under
// another, so a refreshed vector is never paired with a stale score.
//
// The ingestion engine makes one per Ingest call and drops it when the call
// returns, so nothing outlives the epoch: the epoch's pipeline iterations
// share the retained rows' scores instead of recomputing them. A cache
// serves one Scorer (switching resets it) and is not safe for concurrent
// Adds.
type ScoreCache struct {
	phi    *PhiModel
	scorer *Scorer
	gen    uint64
	rows   map[[2]*Row]float64
	serial *metricMemo
	// free holds the idle greedy-worker scratch (mu guards it: the
	// workers run in parallel).
	mu   sync.Mutex
	free []*bestScratch
	// scored counts the row-pair scores computed for the KLj refinement.
	scored int
}

// NewScoreCache returns an empty cache for the Adds of one epoch whose row
// vectors come from phi (nil when they never change, as in a one-shot
// clustering).
func NewScoreCache(phi *PhiModel) *ScoreCache {
	return &ScoreCache{phi: phi}
}

// Scored returns how many row-pair scores the cache has computed for the
// KLj refinement. Adds sharing the cache compute fewer than the same Adds
// with a fresh cache each, by the scores the cache served to a later Add.
func (sc *ScoreCache) Scored() int { return sc.scored }

// begin readies the cache for one Add scored by s, emptying it when the
// scorer or the PHI generation changed since it was filled.
func (sc *ScoreCache) begin(s *Scorer) {
	if gen := sc.phi.generation(); sc.rows == nil || sc.scorer != s || sc.gen != gen {
		sc.scorer, sc.gen = s, gen
		sc.rows = make(map[[2]*Row]float64)
		sc.serial = newMetricMemo(s)
		sc.free = nil
	}
}

// pair returns the scorer's score of the directed pair (a, b), computing
// it at most once per cache lifetime.
func (sc *ScoreCache) pair(a, b *Row) float64 {
	k := [2]*Row{a, b}
	if v, ok := sc.rows[k]; ok {
		return v
	}
	v := sc.scorer.pairMemo(a, b, sc.serial)
	sc.rows[k] = v
	sc.scored++
	return v
}

// getScratch returns an idle greedy-worker scratch, or a new one.
func (sc *ScoreCache) getScratch() *bestScratch {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if n := len(sc.free); n > 0 {
		ws := sc.free[n-1]
		sc.free = sc.free[:n-1]
		return ws
	}
	return &bestScratch{seen: make(map[int]bool, 64), memo: newMetricMemo(sc.scorer)}
}

// putScratch returns a scratch to the idle list.
func (sc *ScoreCache) putScratch(ws *bestScratch) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.free = append(sc.free, ws)
}
