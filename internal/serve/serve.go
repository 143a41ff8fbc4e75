package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/webtable"
)

// Config assembles a server over a live KB, its corpus, and one
// incremental ingestion engine per served class.
type Config struct {
	KB     *kb.KB
	Corpus *webtable.Corpus
	// Engines maps each served class to its engine. Engines must be
	// freshly constructed (not yet ingested) when SnapshotDir warm-starts
	// them.
	Engines map[kb.ClassID]*core.Engine
	// Tables optionally lists the corpus tables matched to each class
	// (core.ClassifyTables output). It backs the ingest request's "auto"
	// mode, which ingests the next N not-yet-ingested tables of a class
	// without the client knowing corpus IDs.
	Tables map[kb.ClassID][]int
	// SnapshotDir enables snapshot persistence when non-empty: New loads
	// any existing snapshot from it, and POST /v1/snapshot saves into it.
	SnapshotDir string
	// WorldKey identifies the deterministic world this server was built
	// over (generation seed and scales, encoded by the caller). It is
	// stamped into snapshots and checked at warm start: discoveries made
	// against a different world must not be loaded onto this one.
	WorldKey string
	// CacheEntries bounds the response cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// QueueDepth bounds each writer lane's pending jobs — one lane per
	// served class plus the snapshot lane — counting both buffered and
	// dependency-parked jobs (default 64). A full lane rejects with 429.
	QueueDepth int
	// CompactAfter triggers snapshot compaction when a save leaves the
	// segment chain at or beyond this many segments (default 8; negative
	// disables automatic compaction). Each save appends one delta segment,
	// so the chain — and cold-start replay — grows without it.
	CompactAfter int
	// JobTTL bounds how long finished job records stay queryable (and
	// journaled) after their terminal transition (default 15m; negative
	// disables eviction). It replaces the old fixed-count retention ring.
	JobTTL time.Duration
	// DisableJournal turns off job journaling even when SnapshotDir is
	// set; job records are then in-memory only and a restart reports no
	// interrupted jobs.
	DisableJournal bool
}

// Server is the HTTP serving layer. Construct with New, expose via
// Handler, and Close when done.
type Server struct {
	kb      *kb.KB
	corpus  *webtable.Corpus
	engines map[kb.ClassID]*core.Engine
	tables  map[kb.ClassID][]int
	// baseTables is the corpus length at construction: tables with IDs at
	// or beyond it were appended by inline raw ingests and do not exist in
	// a regenerated corpus, so snapshots must not record them as ingested.
	baseTables   int
	snapshotDir  string
	worldKey     string
	compactAfter int
	queueDepth   int
	jobTTL       time.Duration
	cache        *lruCache
	mux          *http.ServeMux
	// Warm holds the manifest loaded at startup (nil on a cold start).
	Warm *kb.Manifest

	// now is the scheduler's clock; tests substitute it (before submitting
	// any job) to drive TTL eviction deterministically.
	now func() time.Time

	jobMu   sync.Mutex
	jobs    map[int64]*job
	nextJob int64
	closed  bool
	// active counts jobs not yet terminal; shutdown closes the lanes only
	// once it reaches zero, so dependency chains admitted before shutdown
	// still drain fully.
	active int
	// evicted counts TTL evictions since the journal was last compacted.
	evicted int
	// running maps each lane (keyed by class; "" is the snapshot lane) to
	// the job it is executing right now; the engines' progress hooks
	// attribute their stage updates through it.
	running map[kb.ClassID]*job
	// poisoned records classes whose engine panicked mid-ingest; their
	// retained state can no longer be trusted, so further ingests for them
	// are refused until the process restarts.
	poisoned map[kb.ClassID]string
	// queuesClosed records that every lane channel has been closed.
	queuesClosed bool
	// journal persists job records under the snapshot directory (nil when
	// journaling is disabled or no directory is configured).
	journal *jobJournal

	// lanes holds one writer lane per served class; snapLane runs
	// snapshot jobs so they are never stuck behind a long ingest queue.
	lanes    map[kb.ClassID]*lane
	snapLane *lane

	// execMu serializes mutation against snapshots: ingests hold the read
	// half (so distinct classes proceed in parallel), snapshots take the
	// write half and run exclusively.
	execMu sync.RWMutex

	writersWG   sync.WaitGroup
	writersDone chan struct{}
	closeOnce   sync.Once
}

// JobView is the JSON rendering of a job. Stage is only set while the job
// is running and names the pipeline stage most recently entered
// ("i2/detect": detection during the epoch's second iteration). After
// lists the job's declared dependencies and WaitingOn the subset still
// unfinished. RawIDs are the corpus IDs the job's raw tables were
// appended under. Inputs echoes an ingest job's request — for an
// interrupted job it is exactly what the operator resubmits.
type JobView struct {
	ID        int64             `json:"id"`
	Kind      string            `json:"kind"`
	Class     string            `json:"class,omitempty"`
	Status    string            `json:"status"`
	Stage     string            `json:"stage,omitempty"`
	Error     string            `json:"error,omitempty"`
	After     []int64           `json:"after,omitempty"`
	WaitingOn []int64           `json:"waitingOn,omitempty"`
	RawIDs    []int             `json:"rawIds,omitempty"`
	Inputs    *JobInputsView    `json:"inputs,omitempty"`
	Stats     *core.IngestStats `json:"stats,omitempty"`
	Manifest  *kb.Manifest      `json:"manifest,omitempty"`
}

// JobInputsView echoes an ingest job's inputs. Raw payloads are retained
// only while the job is live and for interrupted jobs (resubmission);
// other finished jobs keep just the table IDs and auto count.
type JobInputsView struct {
	Tables []int      `json:"tables,omitempty"`
	Auto   int        `json:"auto,omitempty"`
	Raw    []RawTable `json:"raw,omitempty"`
}

// JobsView is the GET /v1/jobs response.
type JobsView struct {
	Jobs []JobView `json:"jobs"`
}

// New builds a server, warm-starts from the snapshot directory when one is
// configured and holds a snapshot (replaying the job journal so jobs cut
// short by the previous process are reported as interrupted), and starts
// one writer goroutine per served class plus the snapshot lane. Callers
// must Close the server to stop them.
func New(cfg Config) (*Server, error) {
	if cfg.KB == nil || cfg.Corpus == nil {
		return nil, errors.New("serve: Config needs a KB and a Corpus")
	}
	if len(cfg.Engines) == 0 {
		return nil, errors.New("serve: Config needs at least one class engine")
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 1024
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CompactAfter == 0 {
		cfg.CompactAfter = 8
	}
	if cfg.JobTTL == 0 {
		cfg.JobTTL = 15 * time.Minute
	}
	s := &Server{
		kb:           cfg.KB,
		corpus:       cfg.Corpus,
		engines:      make(map[kb.ClassID]*core.Engine, len(cfg.Engines)),
		snapshotDir:  cfg.SnapshotDir,
		worldKey:     cfg.WorldKey,
		compactAfter: cfg.CompactAfter,
		queueDepth:   cfg.QueueDepth,
		jobTTL:       cfg.JobTTL,
		cache:        newLRUCache(cfg.CacheEntries),
		now:          time.Now,
		jobs:         make(map[int64]*job),
		running:      make(map[kb.ClassID]*job),
		poisoned:     make(map[kb.ClassID]string),
		lanes:        make(map[kb.ClassID]*lane, len(cfg.Engines)),
		writersDone:  make(chan struct{}),
	}
	for class, eng := range cfg.Engines {
		s.engines[class] = eng
		s.lanes[class] = &lane{class: class, q: make(chan *job, cfg.QueueDepth)}
		// Chain a progress hook onto the engine so an in-flight ingest
		// job's current stage is visible via GET /v1/jobs/{id}. Engines
		// are owned by the server once handed over, and a class's ingests
		// run only on its writer goroutine, so mutating Cfg here cannot
		// race.
		class := class
		prev := eng.Cfg.Progress
		eng.Cfg.Progress = func(ev core.Event) {
			s.noteStage(class, ev)
			if prev != nil {
				prev(ev)
			}
		}
	}
	s.snapLane = &lane{q: make(chan *job, cfg.QueueDepth)}
	s.baseTables = cfg.Corpus.Len()
	s.tables = make(map[kb.ClassID][]int, len(cfg.Tables))
	for class, ids := range cfg.Tables {
		s.tables[class] = append([]int(nil), ids...)
	}

	if s.snapshotDir != "" {
		m, err := s.kb.LoadSnapshot(s.snapshotDir)
		switch {
		case errors.Is(err, kb.ErrNoSnapshot):
			// Cold start; the first POST /v1/snapshot creates the files.
		case err != nil:
			return nil, fmt.Errorf("serve: warm start: %w", err)
		default:
			if m.WorldKey != "" && s.worldKey != "" && m.WorldKey != s.worldKey {
				return nil, fmt.Errorf("serve: snapshot was taken against world %q, this server runs %q — refusing to mix discoveries across worlds",
					m.WorldKey, s.worldKey)
			}
			s.Warm = &m
			for class, eng := range s.engines {
				if rerr := eng.Resume(m.Epochs[string(class)], m.Tables[string(class)]); rerr != nil {
					return nil, fmt.Errorf("serve: resuming %s: %w", class, rerr)
				}
			}
		}
	}
	if s.snapshotDir != "" && !cfg.DisableJournal {
		if err := s.loadJournal(); err != nil {
			return nil, fmt.Errorf("serve: job journal: %w", err)
		}
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/classes", s.handleClasses)
	s.mux.HandleFunc("GET /v1/classes/{class}/entities", s.handleEntities)
	s.mux.HandleFunc("GET /v1/instances/{id}", s.handleInstance)
	s.mux.HandleFunc("GET /v1/search", s.handleSearch)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)

	s.startWriters()
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) setJob(j *job, mutate func(*job)) {
	s.jobMu.Lock()
	mutate(j)
	s.jobMu.Unlock()
}

func (s *Server) viewJob(j *job) JobView {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.viewJobLocked(j)
}

// InterruptedJobs lists the jobs the reloaded journal shows were cut off
// by an earlier crash, oldest first. Each carries the inputs to resubmit.
func (s *Server) InterruptedJobs() []JobView {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	var out []JobView
	for _, j := range s.jobs {
		if j.status == statusInterrupted {
			out = append(out, s.viewJobLocked(j))
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

func (s *Server) viewJobLocked(j *job) JobView {
	v := JobView{
		ID:     j.id,
		Kind:   j.kind,
		Status: j.status,
		Stage:  j.stage,
		Error:  j.errMsg,
		After:  append([]int64(nil), j.after...),
		RawIDs: append([]int(nil), j.rawIDs...),
	}
	if j.class != "" {
		v.Class = string(j.class)
	}
	if len(j.waitingOn) > 0 {
		v.WaitingOn = make([]int64, 0, len(j.waitingOn))
		for id := range j.waitingOn {
			v.WaitingOn = append(v.WaitingOn, id)
		}
		sort.Slice(v.WaitingOn, func(i, k int) bool { return v.WaitingOn[i] < v.WaitingOn[k] })
	}
	if j.kind == jobIngest && (len(j.tables) > 0 || j.auto > 0 || len(j.rawSpec) > 0) {
		v.Inputs = &JobInputsView{
			Tables: append([]int(nil), j.tables...),
			Auto:   j.auto,
			// rawSpec is immutable once set, so sharing the slice is safe.
			Raw: j.rawSpec,
		}
	}
	if j.stats != nil {
		st := *j.stats
		v.Stats = &st
	}
	if j.manifest != nil {
		m := *j.manifest
		v.Manifest = &m
	}
	return v
}

// ---- read endpoints ----

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ClassView is one served class in GET /v1/classes.
type ClassView struct {
	Class     string `json:"class"`
	ShortName string `json:"shortName"`
	Epoch     int    `json:"epoch"`
	// Tables counts the tables ingested so far; CorpusTables the classified
	// tables known to the server (the pool "auto" ingestion draws from).
	Tables       int `json:"tables"`
	CorpusTables int `json:"corpusTables"`
	KBInstances  int `json:"kbInstances"`
}

func (s *Server) handleClasses(w http.ResponseWriter, _ *http.Request) {
	classes := make([]kb.ClassID, 0, len(s.engines))
	for class := range s.engines {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	out := make([]ClassView, 0, len(classes))
	for _, class := range classes {
		epoch, tableIDs, _ := s.engines[class].Published()
		out = append(out, ClassView{
			Class:        string(class),
			ShortName:    kb.ClassShortName(class),
			Epoch:        epoch,
			Tables:       len(tableIDs),
			CorpusTables: len(s.tables[class]),
			KBInstances:  s.kb.NumInstancesOf(class),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// EntityView is one entity of a class's most recent epoch output.
// Instance is a pointer because 0 is a valid instance ID that omitempty
// on a plain int would silently drop.
type EntityView struct {
	Label    string              `json:"label"`
	Labels   []string            `json:"labels"`
	IsNew    bool                `json:"isNew"`
	Matched  bool                `json:"matched"`
	Instance *int                `json:"instance,omitempty"`
	Facts    map[string]FactView `json:"facts"`
}

// EntitiesView is the GET /v1/classes/{class}/entities response.
type EntitiesView struct {
	Class    string       `json:"class"`
	Epoch    int          `json:"epoch"`
	Entities []EntityView `json:"entities"`
}

// handleEntities lists the entities of the class's most recent ingest
// epoch (?new=1 restricts to entities classified as new). It reads the
// engine through LastEntities(), whose defensive copies are what make
// this safe while the writer loop runs a later epoch.
func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request) {
	class, ok := s.resolveClass(r.PathValue("class"), true)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("class %q is not served", r.PathValue("class")))
		return
	}
	onlyNew := isTrue(r.URL.Query().Get("new"))
	// Cache the rendered body like the other read endpoints. kb.Version
	// alone is not a sufficient key — an epoch with zero write-backs
	// changes the output without touching the KB — so the epoch joins the
	// key.
	entitiesKey := func(epoch int) string {
		return fmt.Sprintf("e|%s|%v|%d", class, onlyNew, epoch)
	}
	version := s.kb.Version()
	if body, ok := s.cache.get("entities", version, entitiesKey(s.engines[class].Epoch())); ok {
		writeCached(w, http.StatusOK, body)
		return
	}
	ents, dets, epoch := s.engines[class].LastEntities()
	view := EntitiesView{Class: string(class), Epoch: epoch, Entities: []EntityView{}}
	for i, ent := range ents {
		det := dets[i]
		if onlyNew && !det.IsNew {
			continue
		}
		ev := EntityView{
			Label:   ent.Label(),
			Labels:  append([]string(nil), ent.Labels...),
			IsNew:   det.IsNew,
			Matched: det.Matched,
			Facts:   make(map[string]FactView, len(ent.Facts)),
		}
		if det.Matched {
			iid := int(det.Instance)
			ev.Instance = &iid
		}
		for pid, v := range ent.Facts {
			ev.Facts[string(pid)] = FactView{Kind: v.Kind.String(), Value: v.String()}
		}
		view.Entities = append(view.Entities, ev)
	}
	// Store under the epoch the render actually observed (it may have
	// advanced past the key probed above); the body is self-consistent.
	body := mustMarshal(view)
	s.cache.put(version, entitiesKey(epoch), body)
	writeCached(w, http.StatusOK, body)
}

// FactView renders one typed fact.
type FactView struct {
	Kind  string `json:"kind"`
	Value string `json:"value"`
}

// InstanceView is the JSON rendering of a KB instance.
type InstanceView struct {
	ID          int                 `json:"id"`
	Class       string              `json:"class"`
	Labels      []string            `json:"labels"`
	Abstract    string              `json:"abstract,omitempty"`
	Popularity  float64             `json:"popularity,omitempty"`
	Provenance  string              `json:"provenance,omitempty"`
	IngestEpoch int                 `json:"ingestEpoch,omitempty"`
	Facts       map[string]FactView `json:"facts"`
}

func (s *Server) handleInstance(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "instance ID must be an integer")
		return
	}
	version := s.kb.Version()
	key := "i|" + r.PathValue("id")
	if body, ok := s.cache.get("instances", version, key); ok {
		writeCached(w, http.StatusOK, body)
		return
	}
	in := s.kb.Instance(kb.InstanceID(id))
	if in == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no instance %d", id))
		return
	}
	view := InstanceView{
		ID:          int(in.ID),
		Class:       string(in.Class),
		Labels:      append([]string(nil), in.Labels...),
		Abstract:    in.Abstract,
		Popularity:  in.Popularity,
		Provenance:  in.Provenance,
		IngestEpoch: in.IngestEpoch,
		Facts:       make(map[string]FactView, len(in.Facts)),
	}
	for pid, v := range in.Facts {
		view.Facts[string(pid)] = FactView{Kind: v.Kind.String(), Value: v.String()}
	}
	body := mustMarshal(view)
	s.cache.put(version, key, body)
	writeCached(w, http.StatusOK, body)
}

// SearchHitView is one fuzzy search result.
type SearchHitView struct {
	ID         int     `json:"id"`
	Label      string  `json:"label"`
	Class      string  `json:"class"`
	Score      float64 `json:"score"`
	Provenance string  `json:"provenance,omitempty"`
}

// SearchView is the GET /v1/search response.
type SearchView struct {
	Query     string          `json:"query"`
	Class     string          `json:"class,omitempty"`
	KBVersion uint64          `json:"kbVersion"`
	Hits      []SearchHitView `json:"hits"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		writeErr(w, http.StatusBadRequest, "missing query parameter q")
		return
	}
	var class kb.ClassID
	if name := r.URL.Query().Get("class"); name != "" {
		resolved, ok := s.resolveClass(name, false)
		if !ok {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown class %q", name))
			return
		}
		class = resolved
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 100 {
			writeErr(w, http.StatusBadRequest, "k must be an integer in [1, 100]")
			return
		}
		k = n
	}
	version := s.kb.Version()
	key := fmt.Sprintf("s|%s|%d|%s", class, k, q)
	if body, ok := s.cache.get("search", version, key); ok {
		writeCached(w, http.StatusOK, body)
		return
	}
	hits, err := s.kb.SearchInstances(r.Context(), q, kb.CandidateOpts{K: k, Class: class})
	if err != nil {
		// The client went away mid-search; there is no one left to answer.
		return
	}
	view := SearchView{Query: q, Class: string(class), KBVersion: version, Hits: []SearchHitView{}}
	for _, h := range hits {
		hitClass := s.kb.InstanceClass(h.Instance)
		if hitClass == "" {
			continue
		}
		prov, _ := s.kb.InstanceProvenance(h.Instance)
		view.Hits = append(view.Hits, SearchHitView{
			ID:         int(h.Instance),
			Label:      s.kb.InstanceLabel(h.Instance),
			Class:      string(hitClass),
			Score:      h.Score,
			Provenance: prov,
		})
	}
	body := mustMarshal(view)
	s.cache.put(version, key, body)
	writeCached(w, http.StatusOK, body)
}

// CacheStatsView reports response-cache effectiveness, overall and broken
// down by read endpoint (entities, instances, search), so the hit rate of
// the fuzzy-search path is visible independently of lookups.
type CacheStatsView struct {
	Hits     uint64                       `json:"hits"`
	Misses   uint64                       `json:"misses"`
	Entries  int                          `json:"entries"`
	Capacity int                          `json:"capacity"`
	ByPath   map[string]EndpointStatsView `json:"byPath,omitempty"`
}

// EndpointStatsView is one endpoint's slice of the cache counters.
type EndpointStatsView struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// ClassStatsView is the per-class section of GET /v1/stats.
type ClassStatsView struct {
	Epoch   int                `json:"epoch"`
	Tables  int                `json:"tables"`
	History []core.IngestStats `json:"history"`
}

// ClassStorageView is one class's slice of the storage section.
type ClassStorageView struct {
	Instances int `json:"instances"`
	Facts     int `json:"facts"`
}

// StorageStatsView is the storage-health section of GET /v1/stats: the
// KB's columnar footprint plus the state of the snapshot segment chain.
type StorageStatsView struct {
	Instances int `json:"instances"`
	// Ingested counts pipeline write-backs (non-seed instances) — the
	// rows a delta snapshot could have to persist.
	Ingested int `json:"ingested"`
	// ApproxBytes estimates the resident bytes of instance storage
	// (columns, overflow maps, interned strings).
	ApproxBytes int64                       `json:"approxBytes"`
	Classes     map[string]ClassStorageView `json:"classes,omitempty"`
	// Segments counts the snapshot chain's files (0 before the first
	// save or without a snapshot directory); PersistedInstances is the
	// total across them. LastCompaction is the highest ingest epoch
	// folded into a compacted segment (0: never compacted).
	Segments           int `json:"segments,omitempty"`
	PersistedInstances int `json:"persistedInstances,omitempty"`
	LastCompaction     int `json:"lastCompaction,omitempty"`
}

// QueueStatsView is one writer lane's backpressure state: how many jobs
// are admitted but not yet running (buffered plus dependency-parked)
// against the lane's capacity, and whether a job is executing right now.
type QueueStatsView struct {
	Capacity int  `json:"capacity"`
	Queued   int  `json:"queued"`
	Running  bool `json:"running"`
}

// StatsView is the GET /v1/stats response.
type StatsView struct {
	KBVersion   uint64                    `json:"kbVersion"`
	KBInstances int                       `json:"kbInstances"`
	Cache       CacheStatsView            `json:"cache"`
	Classes     map[string]ClassStatsView `json:"classes"`
	Storage     StorageStatsView          `json:"storage"`
	Jobs        map[string]int            `json:"jobs"`
	// Queues reports each writer lane keyed by class, plus "snapshot".
	Queues map[string]QueueStatsView `json:"queues"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	view := StatsView{
		KBVersion:   s.kb.Version(),
		KBInstances: s.kb.NumInstances(),
		Classes:     make(map[string]ClassStatsView, len(s.engines)),
		Jobs:        map[string]int{},
	}
	hits, misses, entries := s.cache.stats()
	view.Cache = CacheStatsView{Hits: hits, Misses: misses, Entries: entries, Capacity: s.cache.cap}
	if byPath := s.cache.endpointStats(); len(byPath) > 0 {
		view.Cache.ByPath = make(map[string]EndpointStatsView, len(byPath))
		for ep, ec := range byPath {
			view.Cache.ByPath[ep] = EndpointStatsView{Hits: ec.hits, Misses: ec.misses}
		}
	}
	for class, eng := range s.engines {
		epoch, tableIDs, hist := eng.Published()
		if hist == nil {
			hist = []core.IngestStats{}
		}
		view.Classes[string(class)] = ClassStatsView{
			Epoch:   epoch,
			Tables:  len(tableIDs),
			History: hist,
		}
	}
	view.Storage = s.storageStats()
	view.Queues = make(map[string]QueueStatsView, len(s.lanes)+1)
	s.jobMu.Lock()
	for _, j := range s.jobs {
		view.Jobs[j.status]++
	}
	for class, ln := range s.lanes {
		view.Queues[string(class)] = QueueStatsView{
			Capacity: s.queueDepth,
			Queued:   ln.occupancy + ln.waiting,
			Running:  s.running[class] != nil,
		}
	}
	view.Queues["snapshot"] = QueueStatsView{
		Capacity: s.queueDepth,
		Queued:   s.snapLane.occupancy + s.snapLane.waiting,
		Running:  s.running[""] != nil,
	}
	s.jobMu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// storageStats merges the KB's columnar footprint with the snapshot
// directory's manifest. Reading the manifest per call is safe against a
// concurrent save: manifests are committed by atomic rename, so this
// sees either the previous chain or the new one, never a torn file.
func (s *Server) storageStats() StorageStatsView {
	st := s.kb.StorageStats()
	out := StorageStatsView{
		Instances:   st.Instances,
		Ingested:    st.Ingested,
		ApproxBytes: st.ApproxBytes,
	}
	if len(st.Classes) > 0 {
		out.Classes = make(map[string]ClassStorageView, len(st.Classes))
		for _, c := range st.Classes {
			out.Classes[string(c.Class)] = ClassStorageView{Instances: c.Instances, Facts: c.Facts}
		}
	}
	if s.snapshotDir != "" {
		if m, err := kb.ReadManifest(s.snapshotDir); err == nil {
			out.Segments = len(m.Segments)
			out.PersistedInstances = m.Instances
			out.LastCompaction = m.CompactedAt
		}
	}
	return out
}

// ---- write endpoints ----

// RawTable is an inline table in an ingest request. LabelCol is optional;
// unset means the pipeline's label-attribute detection decides.
type RawTable struct {
	Caption  string     `json:"caption,omitempty"`
	Headers  []string   `json:"headers"`
	Rows     [][]string `json:"rows"`
	LabelCol *int       `json:"labelCol,omitempty"`
}

// IngestRequest is the POST /v1/ingest body: a class plus any mix of
// corpus table IDs, an "auto" count (the next N not-yet-ingested tables
// the server has classified for the class), and inline raw tables. After
// optionally lists job IDs this ingest must run after: it dispatches only
// once all of them finished successfully, and fails without running if
// any of them fails, is cancelled, or was interrupted.
type IngestRequest struct {
	Class  string     `json:"class"`
	Tables []int      `json:"tables,omitempty"`
	Auto   int        `json:"auto,omitempty"`
	Raw    []RawTable `json:"raw,omitempty"`
	After  []int64    `json:"after,omitempty"`
}

// SnapshotRequest is the optional POST /v1/snapshot body. After has the
// same semantics as on IngestRequest.
type SnapshotRequest struct {
	After []int64 `json:"after,omitempty"`
}

// writeEnqueueErr maps an enqueue failure to its HTTP shape: a full lane
// is backpressure (429 with Retry-After — the client should retry, not
// fail over), an unknown dependency is a client error (400), and a server
// already shutting down is 503.
func writeEnqueueErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err.Error()+"; retry shortly")
	case errors.Is(err, errUnknownDep):
		writeErr(w, http.StatusBadRequest, err.Error())
	default:
		writeErr(w, http.StatusServiceUnavailable, err.Error())
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	class, ok := s.resolveClass(req.Class, true)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("class %q is not served", req.Class))
		return
	}
	s.jobMu.Lock()
	reason, bad := s.poisoned[class]
	s.jobMu.Unlock()
	if bad {
		writeErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("class %s refuses ingests after an engine panic (%s); restart the server", class, reason))
		return
	}
	raw := make([]*webtable.Table, 0, len(req.Raw))
	for i, rt := range req.Raw {
		t := &webtable.Table{
			Caption:  rt.Caption,
			Headers:  append([]string(nil), rt.Headers...),
			Cells:    rt.Rows,
			LabelCol: -1,
		}
		if rt.LabelCol != nil {
			if *rt.LabelCol < 0 || *rt.LabelCol >= len(rt.Headers) {
				writeErr(w, http.StatusBadRequest, fmt.Sprintf("raw table %d: labelCol %d out of range", i, *rt.LabelCol))
				return
			}
			t.LabelCol = *rt.LabelCol
		}
		if err := t.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Sprintf("raw table %d: %v", i, err))
			return
		}
		raw = append(raw, t)
	}
	if req.Auto < 0 {
		writeErr(w, http.StatusBadRequest, "auto must be non-negative")
		return
	}
	// The job's context is independent of the HTTP request's: an async
	// ingest must survive its submitting request. DELETE /v1/jobs/{id}
	// (and a deadline-expired Shutdown) cancel it.
	jctx, cancel := context.WithCancel(context.Background())
	j, err := s.enqueue(&job{
		kind:    jobIngest,
		class:   class,
		tables:  append([]int(nil), req.Tables...),
		auto:    req.Auto,
		raw:     raw,
		rawSpec: req.Raw,
		after:   append([]int64(nil), req.After...),
		ctx:     jctx,
		cancel:  cancel,
	})
	if err != nil {
		cancel()
		writeEnqueueErr(w, err)
		return
	}
	s.respondJob(w, r, j, http.StatusAccepted)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapshotDir == "" {
		writeErr(w, http.StatusConflict, "no snapshot directory configured")
		return
	}
	// The body is optional: a bare POST snapshots immediately, a JSON
	// body may order the snapshot after other jobs.
	var req SnapshotRequest
	if err := decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.enqueue(&job{
		kind:  jobSnapshot,
		after: append([]int64(nil), req.After...),
	})
	if err != nil {
		writeEnqueueErr(w, err)
		return
	}
	s.respondJob(w, r, j, http.StatusAccepted)
}

// handleJobs lists retained jobs newest-first: GET /v1/jobs, optionally
// filtered by ?status= (comma-separated statuses) and bounded by ?limit=.
// Interrupted jobs — survivors of a previous process found in the job
// journal — appear here with their resubmittable inputs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	filter := make(map[string]bool)
	if raw := r.URL.Query().Get("status"); raw != "" {
		for _, st := range strings.Split(raw, ",") {
			st = strings.TrimSpace(st)
			if st == "" {
				continue
			}
			if !terminalStatus(st) && st != statusQueued && st != statusRunning {
				writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown status %q", st))
				return
			}
			filter[st] = true
		}
	}
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = n
	}
	s.jobMu.Lock()
	s.evictExpiredLocked()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		if len(filter) > 0 && !filter[j.status] {
			continue
		}
		views = append(views, s.viewJobLocked(j))
	}
	s.jobMu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].ID > views[k].ID })
	if limit > 0 && len(views) > limit {
		views = views[:limit]
	}
	writeJSON(w, http.StatusOK, JobsView{Jobs: views})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "job ID must be an integer")
		return
	}
	s.jobMu.Lock()
	j := s.jobs[id]
	s.jobMu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no job %d", id))
		return
	}
	writeJSON(w, http.StatusOK, s.viewJob(j))
}

// handleJobCancel implements DELETE /v1/jobs/{id}: a queued job is marked
// cancelled and will be skipped by the writer; a running job has its
// context cancelled and unwinds at the engine's next cooperative
// checkpoint (poll GET /v1/jobs/{id}, or pass ?wait=1 to block until it
// has fully stopped). Finished jobs cannot be cancelled (409).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "job ID must be an integer")
		return
	}
	s.jobMu.Lock()
	j := s.jobs[id]
	var status string
	cancellable := false
	if j != nil {
		status = j.status
		// Only jobs carrying a cancel func are cancellable (ingests);
		// snapshots are not, queued or running.
		cancellable = j.cancel != nil
		if status == statusQueued && cancellable {
			// Completes the job on the spot: a dependency-parked job is
			// unparked, dependents are failed, and its writer will skip
			// the queue entry when it reaches it.
			s.completeJobLocked(j, statusCancelled, "cancelled while queued")
		}
		// A running job's status flips to cancelled only once the engine
		// has actually unwound, so a poller never sees "cancelled" while
		// the writer is still inside Ingest.
	}
	s.jobMu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no job %d", id))
		return
	}
	if !cancellable && (status == statusQueued || status == statusRunning) {
		writeErr(w, http.StatusConflict, fmt.Sprintf("job %d (%s) cannot be cancelled", id, j.kind))
		return
	}
	switch status {
	case statusQueued:
		writeJSON(w, http.StatusOK, s.viewJob(j))
	case statusRunning:
		j.cancel()
		s.respondJob(w, r, j, http.StatusAccepted)
	default:
		writeErr(w, http.StatusConflict, fmt.Sprintf("job %d already finished (%s)", id, status))
	}
}

// respondJob renders a freshly enqueued job, waiting for completion first
// when the request carries ?wait=1 (capped by the request context).
func (s *Server) respondJob(w http.ResponseWriter, r *http.Request, j *job, code int) {
	if isTrue(r.URL.Query().Get("wait")) {
		select {
		case <-j.done:
			code = http.StatusOK
		case <-r.Context().Done():
			// Fall through and report the job as it currently is.
		}
	}
	writeJSON(w, code, s.viewJob(j))
}

// ---- helpers ----

// resolveClass maps a class ID or paper short name ("Song", "GF-Player")
// to a class; servedOnly restricts resolution to classes with engines.
func (s *Server) resolveClass(name string, servedOnly bool) (kb.ClassID, bool) {
	if id := kb.ClassID(name); s.kb.Class(id) != nil {
		if !servedOnly {
			return id, true
		}
		_, ok := s.engines[id]
		return id, ok
	}
	for _, class := range s.kb.Classes() {
		if !strings.EqualFold(kb.ClassShortName(class), name) {
			continue
		}
		if !servedOnly {
			return class, true
		}
		_, ok := s.engines[class]
		return class, ok
	}
	return "", false
}

// maxRequestBody caps POST bodies (inline raw tables included): a
// long-running server must not be OOM-able by one unbounded upload.
const maxRequestBody = 8 << 20

// decodeBody strictly decodes a JSON request body into dst, bounded by
// maxRequestBody.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeCached(w, code, mustMarshal(v))
}

func writeCached(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func mustMarshal(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		// Every view type here marshals by construction; an error is a
		// programming bug worth failing loudly on.
		panic(fmt.Sprintf("serve: marshaling response: %v", err))
	}
	return append(body, '\n')
}

func isTrue(v string) bool {
	return v == "1" || strings.EqualFold(v, "true")
}
