package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/newdet"
	"repro/internal/par"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// Engine is the long-lived incremental ingestion engine for one class: it
// accepts table batches over time via Ingest and maintains persistent state
// between batches — the learned models, the attribute mapping and match
// scores of every ingested table, the prepared rows, the grown row
// clustering (with its block index), and the set of instances written back
// to the KB.
//
// After each batch, entities classified as new are written back into the
// knowledge base as first-class instances carrying kb.ProvenanceIngest and
// the ingest epoch, so the next batch's candidate retrieval, property
// profiles and new detection see them: rows describing an entity
// discovered earlier match it instead of re-creating it. Ingesting the
// full corpus in a single batch reproduces Pipeline.Run bit-for-bit
// (Pipeline is a thin wrapper over a single-use Engine).
//
// Ingest must run on a single writer goroutine at a time (the serve layer
// funnels all batches through one ingest loop), but the published-state
// accessors — Epoch, TableIDs, Last, History — are safe to call from
// concurrent readers while an Ingest is in flight: they take a read lock
// and return copies, so an HTTP handler can never observe a later epoch's
// in-place mutation of retained state. Fork provides an independent copy
// for speculative or parallel ingestion experiments.
type Engine struct {
	Cfg    Config
	Models Models
	// WriteBack controls whether entities detected as new are added to the
	// KB after each batch. It defaults to true for engines built with
	// NewEngine; Pipeline.Run disables it to keep the one-shot pipeline
	// side-effect free.
	WriteBack bool

	scorer   *cluster.Scorer
	detector *newdet.Detector

	// mu guards the published state read by concurrent accessors (epoch,
	// last, history) and the cross-epoch in-place refresh of retained rows'
	// PHI vectors. Ingest itself stays single-writer.
	mu sync.RWMutex
	// epoch counts *completed* epochs; it is published together with last
	// and history in one critical section at the end of Ingest, so a
	// concurrent reader never sees the new epoch number paired with the
	// previous epoch's output. cur is the in-flight epoch (writer-only).
	epoch    int
	cur      int
	history  []IngestStats
	ingested map[int]bool
	clusters *cluster.Incremental
	// blocks persists the blocking label index across epochs: a batch's
	// rows block against every label seen so far, so a fuzzy variant of an
	// earlier label still reaches its retained cluster.
	blocks *cluster.BlockIndex
	// phi persists the PHI statistics across epochs; after each batch
	// extends them, the retained rows' vectors are refreshed so every
	// cross-epoch pair score compares vectors from one model.
	phi *cluster.PhiModel
	// last is the most recent epoch's output (nil before the first), and
	// the one record of the retained state the next epoch extends: its
	// table IDs, mapping, match scores and prepared rows.
	last *Output
	// written maps an entity signature (class + normalized primary label)
	// to the instance written back for it, preventing duplicate write-backs
	// when a cluster persists across epochs without being re-matched.
	written map[string]kb.InstanceID
	// memo caches entity creation and new detection per cluster membership
	// signature, so an epoch only pays for clusters the batch actually
	// touched — the bulk of the retained state passes through unchanged,
	// and without it every epoch re-fuses and re-detects all of it (the
	// dominant super-linear term at scale). It holds only clusters with no
	// row from the pass's batch tables and is replaced by the live cluster
	// set at the end of each pass's detection, so every entry carries both
	// results. An entry's entity is valid for as long as the membership
	// stands (see createEntities); its detection at kbVersion, and at any
	// later version at which the entity retrieves the same candidate list
	// (see detectEntities).
	memo map[string]memoEntry
	// revalidated counts memoized detections reused after a KB version
	// change because the entity's candidate list was unchanged.
	revalidated int
	// reusedTables counts batch tables whose rows an iteration kept from
	// the previous iteration of its epoch (see finishIteration).
	reusedTables int
	// scoredPairs counts the row-pair scores the epochs' score caches
	// computed; with one cache per iteration instead of per epoch it would
	// be higher by the scores served to a later iteration.
	scoredPairs int
}

// memoEntry is one memoized cluster: the canonical *Entity created for its
// membership, and the detection result with the ordered candidate list it
// was scored against at kbVersion. Entity innards (Labels, Facts, BOW,
// Implicit) are immutable once created, so hits share them and only the
// struct (ID, Rows) is copied fresh. The detector configuration
// (thresholds, aggregator, metrics) is fixed for an engine's lifetime, as
// with all Models.
type memoEntry struct {
	ent       *fusion.Entity
	kbVersion uint64
	cands     []kb.InstanceID
	res       newdet.Result
}

// clusterMemoKey identifies a cluster by its member row refs. Result()
// sorts members by Ref, so equal membership always yields equal keys.
func clusterMemoKey(rows []*cluster.Row) string {
	var sb strings.Builder
	sb.Grow(len(rows) * 8)
	for _, r := range rows {
		sb.WriteString(strconv.Itoa(r.Ref.Table))
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(r.Ref.Row))
		sb.WriteByte(';')
	}
	return sb.String()
}

// IngestStats summarizes one Ingest call for logging and monitoring.
type IngestStats struct {
	// Epoch is the 1-based ingest epoch this batch ran as.
	Epoch int
	// BatchTables is the number of not-yet-ingested tables in the batch.
	BatchTables int
	// TotalTables is the number of tables ingested so far.
	TotalTables int
	// Entities is the total number of entities after this batch.
	Entities int
	// NewEntities is how many of them are classified as new.
	NewEntities int
	// Matched is how many are matched to existing KB instances (including
	// instances written back by earlier epochs).
	Matched int
	// WrittenBack is the number of instances this epoch added to the KB.
	WrittenBack int
	// KBInstances is the KB instance count after write-back.
	KBInstances int
	// Iterations is the number of pipeline iterations the epoch ran to
	// completion: Config.Iterations, or fewer when a mapping fixpoint
	// ended the epoch early (see Ingest).
	Iterations int
}

// NewEngine builds an incremental ingestion engine with write-back enabled.
func NewEngine(cfg Config, models Models) *Engine {
	cfg = normalizeConfig(cfg)
	scorer := models.ClusterScorer
	if scorer == nil {
		scorer = defaultScorer()
	}
	detector := models.Detector
	if detector == nil {
		detector = defaultDetector(cfg.KB)
	}
	return &Engine{
		Cfg:       cfg,
		Models:    models,
		WriteBack: true,
		scorer:    scorer,
		detector:  detector,
		ingested:  make(map[int]bool),
		clusters:  cluster.NewIncremental(scorer, cfg.ClusterOpts),
		blocks:    cluster.NewBlockIndex(),
		phi:       cluster.NewPhiModel(),
		written:   make(map[string]kb.InstanceID),
	}
}

// Epoch returns the number of Ingest calls completed (plus any resumed
// base epoch). Safe to call while an Ingest is in flight.
func (e *Engine) Epoch() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// IngestedIDs returns the sorted IDs of every table the engine considers
// ingested, including tables restored by Resume that are not part of any
// retained output. This is the set a serving layer consults when picking
// not-yet-ingested tables. Writer-context only: call it from the same
// goroutine that runs Ingest (unlike the published-state accessors it
// reads the writer's working set).
func (e *Engine) IngestedIDs() []int {
	ids := make([]int, 0, len(e.ingested))
	for tid := range e.ingested {
		ids = append(ids, tid)
	}
	sort.Ints(ids)
	return ids
}

// TableIDs returns a copy of the IDs of all tables processed into the
// retained output since this engine started (tables restored by Resume are
// excluded; see IngestedIDs). Safe to call while an Ingest is in flight.
func (e *Engine) TableIDs() []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]int{}, e.retained().TableIDs...)
}

// History returns a copy of the IngestStats of every completed epoch in
// order. Safe to call while an Ingest is in flight.
func (e *Engine) History() []IngestStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]IngestStats(nil), e.history...)
}

// Published returns one consistent snapshot of the published counters:
// completed epochs, ingested table IDs, and per-epoch history. Reading
// them through separate accessors could interleave with an epoch's
// publication and pair a new epoch count with the previous history.
func (e *Engine) Published() (epoch int, tableIDs []int, history []IngestStats) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch, append([]int{}, e.retained().TableIDs...), append([]IngestStats(nil), e.history...)
}

// retained returns the output the next epoch extends: the last epoch's, or
// an empty one before the first.
func (e *Engine) retained() *Output {
	if e.last == nil {
		return &Output{}
	}
	return e.last
}

// Last returns the output of the most recent Ingest (nil before the
// first), as a defensive copy that is safe to retain while later epochs
// run: the engine refreshes retained rows' PHI vectors in place each
// batch, so handing out the internal Output would let a concurrent reader
// observe a later epoch's mutation. Row structs are value-copied and the
// entities re-pointed at the copies; the maps inside each Row (BOW,
// Values, Implicit) are immutable after row building and stay shared.
func (e *Engine) Last() *Output {
	out, _ := e.LastWithEpoch()
	return out
}

// LastEntities returns copies of the most recent epoch's entities (with
// Rows omitted — member rows alias engine-internal state that later
// epochs refresh in place), their detections, and the completed-epoch
// count, all from one consistent read. Entity maps (Facts, BOW, Implicit)
// are rebuilt fresh each epoch and never mutated afterwards, so sharing
// them is safe; this is the cheap accessor for read paths that only
// render entities and must not pay Last()'s full deep copy.
func (e *Engine) LastEntities() ([]*fusion.Entity, []newdet.Result, int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.last == nil {
		return nil, nil, e.epoch
	}
	ents := make([]*fusion.Entity, len(e.last.Entities))
	for i, ent := range e.last.Entities {
		ec := *ent
		ec.Rows = nil
		ents[i] = &ec
	}
	return ents, append([]newdet.Result(nil), e.last.Detections...), e.epoch
}

// LastWithEpoch returns Last() plus the completed-epoch count from the
// same consistent read, so a caller can label the output with the epoch
// that actually produced it.
func (e *Engine) LastWithEpoch() (*Output, int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.last == nil {
		return nil, e.epoch
	}
	return snapshotOutput(e.last), e.epoch
}

// snapshotOutput deep-copies an Output far enough that no later Ingest can
// mutate anything reachable from the copy. Must be called with e.mu held
// (read or write): it reads Row.TableVec fields that Ingest refreshes under
// the write lock.
func snapshotOutput(o *Output) *Output {
	cp := &Output{
		Class:       o.Class,
		TableIDs:    append([]int(nil), o.TableIDs...),
		Mapping:     make(map[int]map[int]kb.PropertyID, len(o.Mapping)),
		MatchScores: make(map[fusion.ColKey]float64, len(o.MatchScores)),
		RowInstance: make(map[webtable.RowRef]kb.InstanceID, len(o.RowInstance)),
		Detections:  append([]newdet.Result(nil), o.Detections...),
	}
	// Inner mapping maps are immutable once an epoch merges them; sharing
	// them is safe, only the outer map is rebuilt per epoch.
	for tid, m := range o.Mapping {
		cp.Mapping[tid] = m
	}
	for k, v := range o.MatchScores {
		cp.MatchScores[k] = v
	}
	for k, v := range o.RowInstance {
		cp.RowInstance[k] = v
	}
	rowCopy := make(map[*cluster.Row]*cluster.Row, len(o.Rows))
	copyRow := func(r *cluster.Row) *cluster.Row {
		if rc, ok := rowCopy[r]; ok {
			return rc
		}
		rc := *r
		rowCopy[r] = &rc
		return &rc
	}
	cp.Rows = make([]*cluster.Row, len(o.Rows))
	for i, r := range o.Rows {
		cp.Rows[i] = copyRow(r)
	}
	if o.Clustering != nil {
		cl := &cluster.Clustering{
			Assign:   make(map[webtable.RowRef]int, len(o.Clustering.Assign)),
			Clusters: make([][]*cluster.Row, len(o.Clustering.Clusters)),
		}
		for ref, c := range o.Clustering.Assign {
			cl.Assign[ref] = c
		}
		for ci, rows := range o.Clustering.Clusters {
			members := make([]*cluster.Row, len(rows))
			for i, r := range rows {
				members[i] = copyRow(r)
			}
			cl.Clusters[ci] = members
		}
		cp.Clustering = cl
	}
	cp.Entities = make([]*fusion.Entity, len(o.Entities))
	for i, ent := range o.Entities {
		ec := *ent
		ec.Rows = make([]*cluster.Row, len(ent.Rows))
		for j, r := range ent.Rows {
			ec.Rows[j] = copyRow(r)
		}
		cp.Entities[i] = &ec
	}
	return cp
}

// Resume prepares a freshly constructed engine to continue from a KB
// snapshot: it seeds the epoch counter (so later write-backs carry
// monotonically increasing epochs), marks tableIDs as already ingested
// (their entities live on as KB write-backs; the tables themselves are
// not re-processed), and rebuilds the write-back signature set from the
// instances already in the KB carrying kb.ProvenanceIngest, so an entity
// discovered before the snapshot is not written back again after a
// restart. It must be called before the first Ingest.
func (e *Engine) Resume(epoch int, tableIDs []int) error {
	if epoch < 0 {
		return fmt.Errorf("core: Resume epoch %d is negative", epoch)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.epoch != 0 || len(e.ingested) > 0 {
		return fmt.Errorf("core: Resume on an engine that already ingested (epoch %d)", e.epoch)
	}
	e.epoch = epoch
	for _, tid := range tableIDs {
		// Tables appended after startup (inline raw ingests) are not part
		// of the regenerated corpus; marking their IDs ingested would make
		// the engine silently drop whichever future table is assigned the
		// same ID, so only IDs backed by a corpus table are restored.
		if e.Cfg.Corpus.Table(tid) == nil {
			continue
		}
		e.ingested[tid] = true
	}
	for _, iid := range e.Cfg.KB.InstancesOf(e.Cfg.Class) {
		prov, _ := e.Cfg.KB.InstanceProvenance(iid)
		if prov != kb.ProvenanceIngest {
			continue
		}
		sig := instanceSignature(e.Cfg.Class, e.Cfg.KB.InstanceLabel(iid))
		if _, done := e.written[sig]; !done {
			e.written[sig] = iid
		}
	}
	return nil
}

// Fork returns an independent copy of the engine: Ingest on the fork never
// affects the original's state. The knowledge base, corpus, models, caches,
// the last output (which an epoch reads but never writes) and its retained
// Row objects are shared — fork with WriteBack disabled unless the forked
// ingest should really grow the shared KB, and do not run Ingest on a fork
// concurrently with Ingest OR the accessors of the original (and vice
// versa): the shared Row objects are guarded by each engine's own lock, so
// the concurrent-accessor guarantee holds only within one engine, not
// across the fork boundary.
func (e *Engine) Fork() *Engine {
	e.mu.RLock()
	f := &Engine{
		Cfg:       e.Cfg,
		Models:    e.Models,
		WriteBack: e.WriteBack,
		scorer:    e.scorer,
		detector:  e.detector,
		epoch:     e.epoch,
		cur:       e.cur,
		history:   append([]IngestStats(nil), e.history...),
		last:      e.last,
	}
	e.mu.RUnlock()
	f.ingested = make(map[int]bool, len(e.ingested))
	for tid := range e.ingested {
		f.ingested[tid] = true
	}
	f.clusters = e.clusters.Clone()
	f.blocks = e.blocks.Clone()
	f.phi = e.phi.Clone()
	f.written = make(map[string]kb.InstanceID, len(e.written))
	for sig, id := range e.written {
		f.written[sig] = id
	}
	// Memo entries are immutable once stored and the map is only ever
	// replaced, never written in place, so the fork can share it.
	f.memo = e.memo
	return f
}

// Ingest processes one batch of tables (all matched to the engine's class):
// it runs up to the configured number of pipeline iterations scoped to the
// batch's not-yet-ingested tables, stopping at a mapping fixpoint, clusters
// their rows against the retained state, re-creates and re-detects entities
// over everything ingested so far, persists the grown state, and (unless
// WriteBack is off) writes entities classified as new back into the KB.
//
// Mapping fixpoint: once an iteration after the first has matched the
// batch, its attribute-to-property mapping is compared with the previous
// iteration's. When every batch table maps identically, the epoch keeps the
// previous iteration's output with this iteration's match scores and skips
// the remaining stages and iterations. That is exact: row building,
// clustering, entity creation and detection read only the mapping, the
// retained state and the KB, none of which changed (nothing is written back
// mid-epoch, and re-adding the batch to the blocking and PHI statistics is
// idempotent). Match scores feed entity creation only under
// fusion.Matching, so under that scoring the batch's scores must be equal
// too. Any further iteration would receive the same input, so it is
// skipped as well.
//
// Row reuse: short of the fixpoint, an iteration after the first keeps the
// *cluster.Row objects of every batch table whose mapping is equal to the
// previous iteration's and whose row labels each retrieve the same K=5 KB
// candidates, and builds only the others (cluster.Builder.BuildReusing).
// That is exact for the same reasons: a row reads only its immutable
// table, the mapping, the facts of those candidates (the KB is
// append-only, so a candidate's facts never change), the static class
// schema, and the PHI vector and blocks, which do not move within an
// epoch and are recomputed if they did. The candidates are compared
// rather than assumed, because other classes' write-backs can grow the KB
// mid-epoch. Kept rows are the same pointers, so the epoch's ScoreCache
// serves their pair scores to the later iteration too. The offered tables
// live in a variable of this call, so a cancelled epoch keeps none.
//
// The returned Output always covers all tables ingested so far, so a
// single full-corpus batch is exactly a Pipeline.Run.
//
// Cancelling ctx makes Ingest return the context's error at the next
// cooperative checkpoint — checkpoints sit at every stage boundary, inside
// the per-table and per-entity fan-outs, and between clustering batches
// and refinement rounds. A cancelled epoch commits nothing: the published
// state (epoch counter, history, retained output) is untouched and no
// entity reaches the KB, so re-issuing the same batch later runs it as a
// fresh epoch. The persistent blocking and PHI statistics may already
// include the abandoned batch's tables; both are idempotent under
// re-addition, so the retry reproduces what an uncancelled run would have
// produced.
func (e *Engine) Ingest(ctx context.Context, batch []int) (*Output, IngestStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, IngestStats{}, err
	}
	newIDs := e.newTableIDs(batch)
	e.cur = e.epoch + 1

	// A fresh matching context per epoch: the context's property profiles
	// are built once, and the class may have grown by the previous epoch's
	// write-back.
	mc := match.NewContext(e.Cfg.KB, e.Cfg.Corpus)
	mc.Class = e.Cfg.Class

	// One score cache per epoch, shared by every iteration's clustering and
	// dropped when Ingest returns, whatever the outcome.
	cache := cluster.NewScoreCache(e.phi)
	defer func() { e.scoredPairs += cache.Scored() }()

	var out *Output
	var grown *cluster.Incremental
	var built map[int]*cluster.TableRows
	ran := 0
	for it := 0; it < e.Cfg.Iterations; it++ {
		model, matchers, mctx := e.passInputs(mc, out)
		next, err := e.matchBatch(ctx, it+1, mctx, model, matchers, newIDs)
		if err != nil {
			return nil, IngestStats{}, err
		}
		// Mapping fixpoint: keep the previous pass with this pass's scores.
		if out != nil && sameBatchMatch(out, next, newIDs, e.Cfg.Scoring == fusion.Matching) {
			out.MatchScores = next.MatchScores
			break
		}
		if grown, built, err = e.finishIteration(ctx, it+1, next, newIDs, cache, built); err != nil {
			return nil, IngestStats{}, err
		}
		out = next
		ran++
	}

	// Last checkpoint before the commit point: past here the epoch is
	// published atomically, so cancellation no longer applies.
	if err := ctx.Err(); err != nil {
		return nil, IngestStats{}, err
	}

	// Persist the grown state of the final iteration. The published fields
	// (epoch, last, history) are swapped under the write lock so the
	// concurrent accessors never see a half-updated epoch.
	e.clusters = grown
	for _, tid := range newIDs {
		e.ingested[tid] = true
	}

	written := 0
	if e.WriteBack {
		e.Cfg.emit(Event{Epoch: e.cur, Stage: StageWriteBack, Count: len(out.NewEntities())})
		written = e.writeBack(out)
	}
	stats := IngestStats{
		Epoch:       e.cur,
		BatchTables: len(newIDs),
		TotalTables: len(out.TableIDs),
		Entities:    len(out.Entities),
		NewEntities: len(out.NewEntities()),
		WrittenBack: written,
		KBInstances: e.Cfg.KB.NumInstances(),
		Iterations:  ran,
	}
	for _, d := range out.Detections {
		if d.Matched {
			stats.Matched++
		}
	}
	e.mu.Lock()
	e.epoch = e.cur
	e.last = out
	e.history = append(e.history, stats)
	e.mu.Unlock()
	return out, stats, nil
}

// passInputs returns the matching model, matchers and context of the pass
// following prev (nil for the first pass): the first pass matches with the
// KB-only matchers, later passes with all matchers over the previous pass's
// clusters and instance correspondences.
func (e *Engine) passInputs(mc *match.Context, prev *Output) (*match.Model, []match.Matcher, *match.Context) {
	model := e.Models.AttrFirst
	matchers := match.FirstIterationMatchers()
	mctx := mc
	if prev != nil {
		model = e.Models.AttrSecond
		matchers = match.AllMatchers()
		mctx = mc.WithIteration(prev.Mapping, prev.Clustering.Assign, prev.RowInstance)
	}
	if model == nil {
		model = match.DefaultModel(e.Cfg.Class, matchers)
	}
	return model, matchers, mctx
}

// matchBatch starts one pass of the epoch: schema matching over the new
// tables. It returns an Output holding the full mapping and match scores
// (retained tables keep their own), which finishIteration completes. With
// empty retained state and newIDs covering the whole corpus, the two make
// exactly one pipeline iteration.
//
// it is the 1-based iteration number, used only for progress events.
// Cancellation mid-pass abandons it before anything is committed; see
// Ingest for the consistency argument.
func (e *Engine) matchBatch(ctx context.Context, it int, mctx *match.Context, model *match.Model, matchers []match.Matcher, newIDs []int) (*Output, error) {
	if err := e.stage(ctx, it, StageMatch, len(newIDs)); err != nil {
		return nil, err
	}
	prev := e.retained()
	allIDs := sortedTableIDs(append(append([]int(nil), prev.TableIDs...), newIDs...))
	out := &Output{
		Class:       e.Cfg.Class,
		TableIDs:    allIDs,
		Mapping:     make(map[int]map[int]kb.PropertyID, len(prev.Mapping)+len(newIDs)),
		MatchScores: make(map[fusion.ColKey]float64, len(prev.MatchScores)),
		RowInstance: make(map[webtable.RowRef]kb.InstanceID),
	}
	// Retained tables keep the mapping and scores of their own final
	// iteration; only the batch's tables are (re-)matched.
	maps.Copy(out.Mapping, prev.Mapping)
	maps.Copy(out.MatchScores, prev.MatchScores)

	// Schema matching: attribute-to-property correspondences per new table,
	// fanned out over the worker pool. Every worker writes only its own
	// slot; the reduction below runs serially in table order, so the
	// parallel path emits exactly what the serial one would.
	scoredByTable, err := par.MapCtx(ctx, e.Cfg.Workers, newIDs, func(_, tid int) map[int]match.Correspondence {
		t := e.Cfg.Corpus.Table(tid)
		if t == nil {
			return nil
		}
		match.EnsureDetected(t)
		return match.MatchAttributesScored(mctx, model, matchers, t)
	})
	if err != nil {
		return nil, err
	}
	for i, tid := range newIDs {
		if e.Cfg.Corpus.Table(tid) == nil {
			continue
		}
		scored := scoredByTable[i]
		m := make(map[int]kb.PropertyID, len(scored))
		for col, corr := range scored {
			m[col] = corr.Property
			out.MatchScores[fusion.ColKey{Table: tid, Col: col}] = corr.Score
		}
		out.Mapping[tid] = m
	}
	return out, nil
}

// sameBatchMatch reports whether two passes of an epoch matched every batch
// table to the same mapping (and, when scores is set, with the same match
// scores) — the fixpoint at which Ingest stops iterating. Retained tables
// carry identical entries in both passes by construction.
func sameBatchMatch(prev, next *Output, newIDs []int, scores bool) bool {
	for _, tid := range newIDs {
		pm, nm := prev.Mapping[tid], next.Mapping[tid]
		if !maps.Equal(pm, nm) {
			return false
		}
		if !scores {
			continue
		}
		for col := range nm {
			key := fusion.ColKey{Table: tid, Col: col}
			if prev.MatchScores[key] != next.MatchScores[key] {
				return false
			}
		}
	}
	return true
}

// finishIteration completes a pass begun by matchBatch: row building for
// the new tables, incremental clustering against a clone of the retained
// state, then entity creation and new detection over the full ingested
// set. It fills out and returns the grown clustering and what the pass
// built of each batch table. Clustering scores through cache, the epoch's
// ScoreCache. offered holds the previous pass's tables (nil in the first
// pass), whose rows are kept where their inputs are unchanged.
func (e *Engine) finishIteration(ctx context.Context, it int, out *Output, newIDs []int, cache *cluster.ScoreCache, offered map[int]*cluster.TableRows) (*cluster.Incremental, map[int]*cluster.TableRows, error) {
	// Row building for the new tables; retained rows are reused as built
	// (their tables' mapping did not change), and so are the previous
	// pass's rows of every batch table whose mapping and row label
	// candidates are unchanged (see Ingest, row reuse). Blocking and PHI
	// statistics persist across epochs: new rows block against every label
	// seen so far, and after the batch extends the PHI model the retained
	// rows' vectors are refreshed so all pair scores compare within one
	// model. A later iteration re-adds the same batch, which leaves the
	// model's generation, and so the vectors, the kept rows and the epoch's
	// cached scores, as they were.
	if err := e.stage(ctx, it, StageBuild, len(newIDs)); err != nil {
		return nil, nil, err
	}
	builder := &cluster.Builder{
		KB: e.Cfg.KB, Corpus: e.Cfg.Corpus, Class: e.Cfg.Class,
		Mapping: out.Mapping,
		Blocks:  e.blocks,
		Phi:     e.phi,
	}
	newRows, built := builder.BuildReusing(newIDs, offered)
	for tid, tr := range built {
		if offered[tid] == tr {
			e.reusedTables++
		}
	}
	// The refresh rewrites retained rows' TableVec in place; concurrent
	// Last() snapshots read those fields under the read lock, so the
	// mutation takes the write lock.
	prevRows := e.retained().Rows
	e.mu.Lock()
	e.phi.Refresh(prevRows)
	e.mu.Unlock()
	out.Rows = slices.Concat(prevRows, newRows)

	// Incremental clustering: grow a clone of the retained state with the
	// batch's rows (the clone keeps the persistent baseline intact while
	// the epoch's iterations each re-cluster the batch under a refined
	// mapping).
	if err := e.stage(ctx, it, StageCluster, len(newRows)); err != nil {
		return nil, nil, err
	}
	grown := e.clusters.Clone()
	if err := grown.Add(ctx, newRows, cache); err != nil {
		return nil, nil, err
	}
	out.Clustering = grown.Result()

	// Entity creation over every cluster, retained and new.
	if err := e.stage(ctx, it, StageFuse, len(out.Clustering.Clusters)); err != nil {
		return nil, nil, err
	}
	src := &fusion.Sources{
		KB: e.Cfg.KB, Corpus: e.Cfg.Corpus, Class: e.Cfg.Class,
		Mapping:     out.Mapping,
		Thresholds:  dtype.DefaultThresholds(),
		Scoring:     e.Cfg.Scoring,
		MatchScores: out.MatchScores,
	}
	var keys []string
	out.Entities, keys = e.createEntities(src, out.Clustering, newIDs)

	// New detection: memoized like entity creation; the misses classify
	// independently on the pool, and RowInstance is then assembled serially
	// in entity order.
	if err := e.stage(ctx, it, StageDetect, len(out.Entities)); err != nil {
		return nil, nil, err
	}
	if err := e.detectEntities(ctx, out, keys); err != nil {
		return nil, nil, err
	}
	for i, ent := range out.Entities {
		if res := out.Detections[i]; res.Matched {
			for _, r := range ent.Rows {
				out.RowInstance[r.Ref] = res.Instance
			}
		}
	}
	return grown, built, nil
}

// stage is the boundary before stage s of iteration it. It returns ctx's
// error once the epoch is cancelled, so a cancelled epoch fires no later
// event, and otherwise emits the stage's start event with count units.
func (e *Engine) stage(ctx context.Context, it int, s Stage, count int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	e.Cfg.emit(Event{Epoch: e.cur, Iteration: it, Stage: s, Count: count})
	return nil
}

// createEntities is fusion.CreateAll with a memo over cluster membership: a
// cluster with no row from a batch table (newIDs, sorted) reuses the entity
// memoized for its exact membership instead of re-reading every member row.
// It returns the entities and, per entity, its memo key — "" for a cluster
// holding a batch row, whose rows are rebuilt every pass (possibly under a
// refined mapping) and so must be re-fused. Deduplicate may merge and
// re-fuse entities after creation, so under Dedup the memo is off and every
// key is "".
//
// Exactness: Create derives an entity solely from its member rows (their
// Label, BOW, Implicit, Ref, corpus cells under the mapping), the match
// scores of their columns (under fusion.Matching) and the class schema —
// never from the phi TableVec the in-place Refresh rewrites, from instance
// data or from a RowInstance (Sources carries none). Retained rows are
// immutable between epochs and their tables' mapping and scores are frozen,
// so an all-retained cluster yields the same entity at every KB version.
// Entity innards are immutable once created; a hit copies the struct and
// re-stamps ID and Rows, exactly what CreateAll would produce.
func (e *Engine) createEntities(src *fusion.Sources, cl *cluster.Clustering, newIDs []int) ([]*fusion.Entity, []string) {
	if e.Cfg.Dedup {
		ents := fusion.Deduplicate(src, fusion.CreateAll(src, cl), e.Cfg.DedupConfig)
		return ents, make([]string, len(ents))
	}
	inBatch := func(r *cluster.Row) bool {
		_, found := slices.BinarySearch(newIDs, r.Ref.Table)
		return found
	}
	out := make([]*fusion.Entity, 0, len(cl.Clusters))
	keys := make([]string, 0, len(cl.Clusters))
	for _, rows := range cl.Clusters {
		if len(rows) == 0 {
			continue
		}
		key := ""
		if !slices.ContainsFunc(rows, inBatch) {
			key = clusterMemoKey(rows)
		}
		var ent *fusion.Entity
		if m, ok := e.memo[key]; ok { // the memo never holds the "" key
			ec := *m.ent
			ec.Rows = rows
			ent = &ec
		} else {
			ent = fusion.Create(src, rows)
		}
		ent.ID = len(out)
		out = append(out, ent)
		keys = append(keys, key)
	}
	return out, keys
}

// detectEntities fills out.Detections for out.Entities, reusing the memoized
// result of every entity with a memo key (see createEntities), and then
// replaces the memo with this pass's keyed entities and their detections.
// Result is a plain value (no entity identity), and the detector's
// configuration is fixed for the engine's lifetime. A hit at the current KB
// version is served directly. After the KB grew (write-back), an entry is
// revalidated instead: the entity's candidates are recomputed, and an
// unchanged ordered list means an unchanged result. A memoized entity is the
// same at every KB version, and detection reads only the entity's immutable
// innards, the candidate list (from which the popularity ranks are built),
// the candidates' immutable instance data and the static class hierarchy.
// Misses fan out over the worker pool. A cancelled pass leaves the memo as
// it was.
func (e *Engine) detectEntities(ctx context.Context, out *Output, keys []string) error {
	out.Detections = make([]newdet.Result, len(out.Entities))
	kbVer := e.Cfg.KB.Version()
	cands := make([][]kb.InstanceID, len(out.Entities))
	var missIdx []int
	for i, key := range keys {
		if m, ok := e.memo[key]; ok && m.kbVersion == kbVer {
			out.Detections[i], cands[i] = m.res, m.cands
			continue
		}
		missIdx = append(missIdx, i)
	}
	reused := make([]bool, len(out.Entities))
	if err := par.ForEachCtx(ctx, e.Cfg.Workers, len(missIdx), func(j int) {
		i := missIdx[j]
		ent := out.Entities[i]
		cands[i] = e.detector.Candidates(ent)
		if m, ok := e.memo[keys[i]]; ok && slices.Equal(m.cands, cands[i]) {
			out.Detections[i], reused[i] = m.res, true
			return
		}
		out.Detections[i] = e.detector.DetectAmong(ent, cands[i])
	}); err != nil {
		return err
	}
	next := make(map[string]memoEntry, len(keys))
	for i, key := range keys {
		if key == "" {
			continue
		}
		next[key] = memoEntry{ent: out.Entities[i], kbVersion: kbVer, cands: cands[i], res: out.Detections[i]}
		if reused[i] {
			e.revalidated++
		}
	}
	e.memo = next
	return nil
}

// writeBack adds every entity classified as new to the KB as a first-class
// instance with provenance and the current epoch, skipping signatures
// already written by an earlier epoch. It returns the number written.
func (e *Engine) writeBack(out *Output) int {
	n := 0
	for i, ent := range out.Entities {
		if !out.Detections[i].IsNew {
			continue
		}
		sig := entitySignature(ent)
		if _, done := e.written[sig]; done {
			continue
		}
		facts := make(map[kb.PropertyID]dtype.Value, len(ent.Facts))
		for pid, v := range ent.Facts {
			facts[pid] = v
		}
		id := e.Cfg.KB.AddInstance(&kb.Instance{
			Class:       ent.Class,
			Labels:      append([]string(nil), ent.Labels...),
			Facts:       facts,
			Provenance:  kb.ProvenanceIngest,
			IngestEpoch: e.cur,
		})
		e.written[sig] = id
		n++
	}
	return n
}

// entitySignature identifies an entity across epochs for write-back
// deduplication: its class plus its normalized primary label.
func entitySignature(ent *fusion.Entity) string {
	return instanceSignature(ent.Class, ent.Label())
}

// instanceSignature is the one signature format shared by write-back
// deduplication and Resume's restoration of the written set — if they
// ever diverged, every pre-snapshot entity would be re-written after a
// restart.
func instanceSignature(class kb.ClassID, label string) string {
	return string(class) + "\x00" + strsim.Normalize(label)
}

// newTableIDs returns the batch's table IDs that have not been ingested
// yet, sorted and deduplicated.
func (e *Engine) newTableIDs(batch []int) []int {
	fresh := make([]int, 0, len(batch))
	for _, tid := range batch {
		if !e.ingested[tid] {
			fresh = append(fresh, tid)
		}
	}
	return sortedTableIDs(fresh)
}

// normalizeConfig applies the Config defaults shared by New and NewEngine.
func normalizeConfig(cfg Config) Config {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 2
	}
	if cfg.MinClassRowFrac <= 0 {
		cfg.MinClassRowFrac = 0.3
	}
	// A single Workers knob governs the whole run: when the clustering
	// options don't set their own pool size, they inherit it, so
	// Workers=1 really is a fully serial pipeline.
	if cfg.ClusterOpts.Workers == 0 {
		cfg.ClusterOpts.Workers = cfg.Workers
	}
	return cfg
}
