package newdet

import (
	"sync"

	"repro/internal/agg"
	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/ml"
	"repro/internal/strsim"
)

// Result is the classification of one entity.
type Result struct {
	// IsNew reports that the entity describes an instance absent from the
	// knowledge base.
	IsNew bool
	// Matched reports that the entity was matched to an existing instance
	// (IsNew and Matched are mutually exclusive; both false means the
	// detector abstained because the best score fell between thresholds).
	Matched bool
	// Instance is the matched instance when Matched.
	Instance kb.InstanceID
	// BestScore is the highest aggregated candidate similarity in
	// [-1, 1]; -1 when the entity had no candidates at all.
	BestScore float64
}

// Detector classifies created entities as new or existing.
type Detector struct {
	KB      *kb.KB
	Metrics []Metric
	Agg     agg.Aggregator
	// NewThreshold: the entity is new when the best candidate score is
	// below it. ExistThreshold: the entity is matched when the best score
	// is at or above it. NewThreshold <= ExistThreshold.
	NewThreshold   float64
	ExistThreshold float64
	// CandidateK is the number of label-index candidates considered
	// (default 20).
	CandidateK int
	// Thresholds are the data-type equivalence thresholds.
	Thresholds dtype.Thresholds

	// candMu guards the per-(class, label) candidate cache. Detect runs
	// concurrently on the pipeline's worker pool, and the same entity
	// labels recur across ingest epochs; the cache is keyed on the KB
	// version so it extends naturally when the engine writes new instances
	// back — a grown KB drops the cache and later lookups see the
	// write-backs as candidates.
	candMu      sync.Mutex
	candVersion uint64
	candCache   map[candKey][]kb.InstanceID

	// bowMu guards the per-instance sparse BOW cache. Instances are
	// immutable once added and IDs are never reused, so entries never
	// invalidate; the cache grows with the distinct candidates scored.
	bowMu    sync.RWMutex
	bowCache map[kb.InstanceID]strsim.SparseVec
}

// instanceBOW returns the instance's term vector in sorted sparse form,
// cached per instance ID.
func (d *Detector) instanceBOW(inst kb.InstanceID) strsim.SparseVec {
	d.bowMu.RLock()
	v, ok := d.bowCache[inst]
	d.bowMu.RUnlock()
	if ok {
		return v
	}
	v = strsim.ToSparse(instanceBOW(d.KB, inst))
	d.bowMu.Lock()
	if d.bowCache == nil {
		d.bowCache = make(map[kb.InstanceID]strsim.SparseVec, 256)
	}
	d.bowCache[inst] = v
	d.bowMu.Unlock()
	return v
}

// candKey addresses one candidate lookup: the entity class (the §3.4 class
// restriction) and the raw label queried.
type candKey struct {
	class kb.ClassID
	label string
}

// NewDetector returns a detector with the full metric set, the given
// aggregator, and zero thresholds (score > 0 means match).
func NewDetector(k *kb.KB, aggr agg.Aggregator) *Detector {
	return &Detector{
		KB: k, Metrics: MetricSet(), Agg: aggr,
		CandidateK: 20, Thresholds: dtype.DefaultThresholds(),
	}
}

// Detect classifies one entity: candidate selection, per-candidate
// aggregated similarity, then threshold classification. It is
// DetectAmong(e, d.Candidates(e)).
func (d *Detector) Detect(e *fusion.Entity) Result {
	return d.DetectAmong(e, d.Candidates(e))
}

// DetectAmong classifies an entity against a given candidate list, which
// must be the list Candidates returned for it. The result depends only on
// the entity, the ordered list (the POPULARITY ranks are built from it)
// and immutable instance data, so a caller that finds an entity's
// candidate list unchanged after the KB grew may keep its earlier result.
func (d *Detector) DetectAmong(e *fusion.Entity, cands []kb.InstanceID) Result {
	best, bestScore := d.bestAmong(e, cands)
	if best < 0 {
		return Result{IsNew: true, BestScore: -1}
	}
	switch {
	case bestScore < d.NewThreshold:
		return Result{IsNew: true, BestScore: bestScore}
	case bestScore >= d.ExistThreshold:
		return Result{Matched: true, Instance: best, BestScore: bestScore}
	default:
		return Result{BestScore: bestScore}
	}
}

// BestCandidate returns the best-matching candidate instance and its
// aggregated score, or (-1, 0) when no candidates exist.
func (d *Detector) BestCandidate(e *fusion.Entity) (kb.InstanceID, float64) {
	return d.bestAmong(e, d.Candidates(e))
}

func (d *Detector) bestAmong(e *fusion.Entity, cands []kb.InstanceID) (kb.InstanceID, float64) {
	if len(cands) == 0 {
		return -1, 0
	}
	env := &Env{
		KB: d.KB, Thresholds: d.Thresholds,
		PopRank: BuildPopRank(d.KB, cands),
	}
	env.PrepareEnv(d, e)
	best, bestScore := kb.InstanceID(-1), -2.0
	for _, iid := range cands {
		s := d.Score(env, e, iid)
		if s > bestScore {
			best, bestScore = iid, s
		}
	}
	return best, bestScore
}

// Score aggregates all metrics for one entity-instance pair.
func (d *Detector) Score(env *Env, e *fusion.Entity, inst kb.InstanceID) float64 {
	f := agg.BorrowFeatures(len(d.Metrics))
	for i, m := range d.Metrics {
		f.Scores[i], f.Confs[i] = m.Compare(env, e, inst)
	}
	score := d.Agg.Score(*f)
	agg.ReturnFeatures(f)
	return score
}

// Candidates finds candidate instances for all entity labels with the class
// restriction of §3.4 (same class or sharing a parent class), in label
// order without duplicates. Per-label lookups are memoized until the KB
// grows; the returned slice is freshly allocated and owned by the caller.
func (d *Detector) Candidates(e *fusion.Entity) []kb.InstanceID {
	seen := make(map[kb.InstanceID]bool)
	var out []kb.InstanceID
	for _, label := range e.Labels {
		for _, iid := range d.labelCandidates(e.Class, label) {
			if !seen[iid] {
				seen[iid] = true
				out = append(out, iid)
			}
		}
	}
	return out
}

// labelCandidates returns the cached candidate list for one (class, label)
// pair, recomputing it when the KB version moved (engine write-back).
func (d *Detector) labelCandidates(class kb.ClassID, label string) []kb.InstanceID {
	k := d.CandidateK
	if k <= 0 {
		k = 20
	}
	ver := d.KB.Version()
	key := candKey{class: class, label: label}
	d.candMu.Lock()
	if d.candVersion != ver {
		d.candCache = nil
		d.candVersion = ver
	}
	cached, ok := d.candCache[key]
	d.candMu.Unlock()
	if ok {
		return cached
	}
	cands := d.KB.Candidates(label, kb.CandidateOpts{K: k, Class: class})
	d.candMu.Lock()
	// Re-check the version: a concurrent write-back between the lookup and
	// the store must not poison the fresh cache with a stale list.
	if d.candVersion == ver {
		if d.candCache == nil {
			d.candCache = make(map[candKey][]kb.InstanceID)
		}
		d.candCache[key] = cands
	}
	d.candMu.Unlock()
	return cands
}

// Example is one labeled entity for learning: the entity plus its correct
// instance (or IsNew when it has none).
type Example struct {
	Entity   *fusion.Entity
	IsNew    bool
	Instance kb.InstanceID
}

// LearnAggregator builds pair-level training data from labeled entities
// (positive: entity vs its correct instance; negative: entity vs its other
// candidates) and learns the combined aggregator.
func LearnAggregator(k *kb.KB, metrics []Metric, examples []Example, seed int64) (*agg.Combined, []agg.Example) {
	d := &Detector{KB: k, Metrics: metrics, Thresholds: dtype.DefaultThresholds(), CandidateK: 20}
	var pairs []agg.Example
	for _, ex := range examples {
		cands := d.Candidates(ex.Entity)
		if !ex.IsNew {
			found := false
			for _, c := range cands {
				if c == ex.Instance {
					found = true
					break
				}
			}
			if !found {
				cands = append(cands, ex.Instance)
			}
		}
		if len(cands) == 0 {
			continue
		}
		env := &Env{
			KB: k, Thresholds: d.Thresholds,
			PopRank: BuildPopRank(k, cands),
		}
		env.PrepareEnv(d, ex.Entity)
		for _, c := range cands {
			f := agg.Features{
				Scores: make([]float64, len(metrics)),
				Confs:  make([]float64, len(metrics)),
			}
			for i, m := range metrics {
				f.Scores[i], f.Confs[i] = m.Compare(env, ex.Entity, c)
			}
			pairs = append(pairs, agg.Example{F: f, Match: !ex.IsNew && c == ex.Instance})
		}
	}
	return agg.LearnCombined(pairs, len(metrics), seed), pairs
}

// LearnThresholds fits the new/exist thresholds on labeled entities by
// maximizing classification accuracy with a genetic algorithm. It returns
// a ready detector.
func LearnThresholds(k *kb.KB, metrics []Metric, aggr agg.Aggregator, examples []Example, seed int64) *Detector {
	d := &Detector{
		KB: k, Metrics: metrics, Agg: aggr,
		CandidateK: 20, Thresholds: dtype.DefaultThresholds(),
	}
	// Precompute each entity's best candidate under the aggregator.
	type scored struct {
		ex    Example
		best  kb.InstanceID
		score float64
	}
	data := make([]scored, 0, len(examples))
	for _, ex := range examples {
		best, score := d.BestCandidate(ex.Entity)
		if best < 0 {
			score = -1
		}
		data = append(data, scored{ex: ex, best: best, score: score})
	}
	genes, _ := ml.Optimize(ml.GAConfig{
		Genes: 2, Min: -1, Max: 1, Seed: seed, Generations: 40, Population: 40,
	}, func(g []float64) float64 {
		newTh, existTh := g[0], g[1]
		if existTh < newTh {
			existTh = newTh
		}
		correct := 0
		for _, s := range data {
			switch {
			case s.score < newTh || s.best < 0:
				if s.ex.IsNew {
					correct++
				}
			case s.score >= existTh:
				if !s.ex.IsNew && s.best == s.ex.Instance {
					correct++
				}
			}
		}
		return float64(correct) / float64(len(data))
	})
	d.NewThreshold = genes[0]
	d.ExistThreshold = genes[1]
	if d.ExistThreshold < d.NewThreshold {
		d.ExistThreshold = d.NewThreshold
	}
	return d
}
