package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/webtable"
)

// The scheduler replaces the original single-writer loop: one writer
// goroutine per served class, each consuming its own capacity-bounded
// queue, plus a dedicated snapshot lane. Independent classes ingest in
// parallel (the engines are per-class and every shared structure — KB,
// corpus, label indexes — is concurrent-safe); per-class ordering is
// preserved because each class's queue is FIFO and drained by exactly one
// goroutine. Snapshot jobs quiesce all writers through execMu: ingests
// run under the read half, snapshots take the write half, so a manifest's
// epoch bookkeeping can never disagree with the instance chain it
// describes.

const (
	jobIngest   = "ingest"
	jobSnapshot = "snapshot"

	statusQueued    = "queued"
	statusRunning   = "running"
	statusDone      = "done"
	statusFailed    = "failed"
	statusCancelled = "cancelled"
	// statusInterrupted marks a job that was queued or running when the
	// process died: the journal replay reports it with its full inputs so
	// the operator can resubmit (nothing of it was committed — a killed
	// epoch publishes nothing).
	statusInterrupted = "interrupted"
)

// terminalStatus reports whether a status is final.
func terminalStatus(status string) bool {
	switch status {
	case statusDone, statusFailed, statusCancelled, statusInterrupted:
		return true
	}
	return false
}

// job is one unit of writer work plus its externally visible state.
type job struct {
	// Mutable state, guarded by Server.jobMu.
	id       int64
	kind     string
	status   string
	stage    string // current pipeline stage while running (progress events)
	errMsg   string
	stats    *core.IngestStats
	manifest *kb.Manifest
	finished time.Time // terminal transition time, drives TTL eviction
	// waitingOn holds the not-yet-finished dependency IDs; non-nil exactly
	// while the job is counted in its lane's waiting total (nil once
	// dispatched, completed, or never dep-gated).
	waitingOn map[int64]struct{}
	// dependents lists jobs whose `after` includes this one.
	dependents []int64
	// rawIDs records the corpus IDs the job's raw tables were appended
	// under (set while running, journaled, reported for retry-by-ID).
	rawIDs []int

	// Inputs, immutable after enqueue. rawSpec mirrors raw in request form
	// for the journal and the interrupted-job report; raw is freed when
	// the job finishes, rawSpec only when the outcome is not interrupted.
	class   kb.ClassID
	tables  []int
	auto    int
	raw     []*webtable.Table
	rawSpec []RawTable
	after   []int64

	// ctx is cancelled by DELETE /v1/jobs/{id} and by a deadline-expired
	// Shutdown; the engine's cooperative checkpoints observe it.
	ctx    context.Context
	cancel context.CancelFunc

	done chan struct{}
}

func (j *job) terminal() bool { return terminalStatus(j.status) }

// lane is one writer goroutine's bounded queue. The per-class ingest
// lanes and the snapshot lane share the shape.
type lane struct {
	class kb.ClassID // "" for the snapshot lane
	q     chan *job
	// occupancy counts jobs currently buffered in q — including jobs
	// cancelled after being queued, which stay in the channel as
	// carcasses until the writer pops and skips them. waiting counts
	// dependency-gated jobs bound for this lane but not yet in q.
	// occupancy+waiting <= queueDepth is the admission invariant that
	// guarantees a dispatch send never blocks. Both guarded by jobMu.
	occupancy int
	waiting   int
}

// errQueueFull distinguishes backpressure (retryable, 429) from shutdown
// (503).
var errQueueFull = errors.New("serve: job queue is full")

// errClosed is returned for jobs submitted after shutdown began.
var errClosed = errors.New("serve: server is shut down")

// errUnknownDep marks a dependency on a job ID the server does not know —
// a client error (400), not backpressure or shutdown.
var errUnknownDep = errors.New("unknown dependency")

// laneFor returns the lane a job runs on.
func (s *Server) laneFor(j *job) *lane {
	if j.kind == jobSnapshot {
		return s.snapLane
	}
	return s.lanes[j.class]
}

// enqueue registers a job, journals it, and either dispatches it to its
// lane, parks it until its dependencies finish, or — when a dependency
// already finished unsuccessfully — fails it on the spot.
func (s *Server) enqueue(j *job) (*job, error) {
	j.done = make(chan struct{})
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	ln := s.laneFor(j)
	if ln == nil {
		return nil, fmt.Errorf("serve: class %q has no writer", j.class)
	}
	// Resolve dependencies first: an unknown ID is a client error that
	// must not consume a queue slot.
	var failedDep *job
	var waiting map[int64]struct{}
	for _, id := range j.after {
		dj := s.jobs[id]
		if dj == nil {
			return nil, fmt.Errorf("serve: %w: job %d (finished jobs are evicted after the job TTL)", errUnknownDep, id)
		}
		switch {
		case dj.status == statusDone:
			// Satisfied.
		case dj.terminal():
			if failedDep == nil {
				failedDep = dj
			}
		default:
			if waiting == nil {
				waiting = make(map[int64]struct{})
			}
			waiting[id] = struct{}{}
		}
	}
	if ln.occupancy+ln.waiting >= s.queueDepth {
		return nil, errQueueFull
	}
	s.nextJob++
	j.id = s.nextJob
	j.status = statusQueued
	s.jobs[j.id] = j
	s.active++
	rec := recordOf(j)
	rec.Unix = s.now().Unix() // a queued record carries its enqueue time
	if err := s.journalAppendLocked(rec); err != nil {
		// The job could not be made durable; refuse it rather than run
		// work a restart would not know about. The journal tail may be
		// torn, so rewrite it — after unregistering, so the refused job
		// cannot resurface as an interrupted ghost.
		delete(s.jobs, j.id)
		s.active--
		s.repairJournalLocked()
		return nil, err
	}
	switch {
	case failedDep != nil:
		s.completeJobLocked(j, statusFailed,
			fmt.Sprintf("dependency job %d %s; not running dependents", failedDep.id, failedDep.status))
	case len(waiting) > 0:
		j.waitingOn = waiting
		ln.waiting++
		for id := range waiting {
			dj := s.jobs[id]
			dj.dependents = append(dj.dependents, j.id)
		}
	default:
		s.dispatchLocked(j)
	}
	s.evictExpiredLocked()
	return j, nil
}

// dispatchLocked hands a job to its lane's writer. The admission
// invariant (occupancy+waiting <= queueDepth, channel capacity ==
// queueDepth) guarantees the send cannot block.
func (s *Server) dispatchLocked(j *job) {
	ln := s.laneFor(j)
	ln.occupancy++
	select {
	case ln.q <- j:
	default:
		// Unreachable while the admission invariant holds; fail loudly
		// rather than deadlock the caller holding jobMu.
		ln.occupancy--
		s.completeJobLocked(j, statusFailed, "internal: lane queue overflow")
	}
}

// completeJob is the unlocked wrapper around completeJobLocked.
func (s *Server) completeJob(j *job, status, errMsg string) {
	s.jobMu.Lock()
	s.completeJobLocked(j, status, errMsg)
	s.jobMu.Unlock()
}

// completeJobLocked moves a job to a terminal status exactly once:
// journals the transition, releases its context, frees its inputs
// (interrupted jobs keep them for resubmission), cascades to dependents —
// a successful dependency dispatches dependents whose last gate this was,
// an unsuccessful one fails them — and closes the done channel.
func (s *Server) completeJobLocked(j *job, status, errMsg string) {
	if j.terminal() {
		return
	}
	if j.waitingOn != nil {
		s.laneFor(j).waiting--
		j.waitingOn = nil
	}
	j.status = status
	j.errMsg = errMsg
	j.stage = ""
	j.finished = s.now()
	s.journalTransitionLocked(jobRecord{
		ID: j.id, Status: status, Error: errMsg, RawIDs: j.rawIDs, Unix: j.finished.Unix(),
	})
	if j.cancel != nil {
		j.cancel() // release the context's resources
	}
	// Raw table payloads can be large; keep the request-form copy only
	// when the operator needs it to resubmit.
	j.raw = nil
	if status != statusInterrupted {
		j.rawSpec = nil
	}
	s.active--
	for _, did := range j.dependents {
		d := s.jobs[did]
		if d == nil || d.terminal() || d.waitingOn == nil {
			continue
		}
		delete(d.waitingOn, j.id)
		if status != statusDone {
			s.completeJobLocked(d, statusFailed,
				fmt.Sprintf("dependency job %d %s; not run", j.id, status))
		} else if len(d.waitingOn) == 0 {
			s.laneFor(d).waiting--
			d.waitingOn = nil
			s.dispatchLocked(d)
		}
	}
	j.dependents = nil
	close(j.done)
	if s.closed {
		s.maybeCloseQueuesLocked()
	}
}

// executeJob runs one job on its lane's writer goroutine. A panic
// escaping the engine fails the job instead of taking the server down.
// Jobs cancelled while still queued are skipped (their completion already
// happened at cancel time).
func (s *Server) executeJob(ln *lane, j *job) {
	s.jobMu.Lock()
	ln.occupancy--
	if j.terminal() {
		s.jobMu.Unlock()
		return
	}
	j.status = statusRunning
	s.running[ln.class] = j
	s.journalTransitionLocked(jobRecord{ID: j.id, Status: statusRunning, Unix: s.now().Unix()})
	s.jobMu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			s.completeJob(j, statusFailed, fmt.Sprintf("panic: %v", r))
		}
		s.jobMu.Lock()
		if s.running[ln.class] == j {
			delete(s.running, ln.class)
		}
		s.jobMu.Unlock()
	}()
	switch j.kind {
	case jobIngest:
		s.runIngest(j)
	case jobSnapshot:
		s.runSnapshot(j)
	}
}

// noteStage records the pipeline stage an in-flight ingest just entered,
// for GET /v1/jobs/{id}. Called from the class engine's progress hook,
// which fires on that class's writer goroutine while its job runs.
func (s *Server) noteStage(class kb.ClassID, ev core.Event) {
	s.jobMu.Lock()
	if j := s.running[class]; j != nil {
		if ev.Iteration > 0 {
			j.stage = fmt.Sprintf("i%d/%s", ev.Iteration, ev.Stage)
		} else {
			j.stage = string(ev.Stage)
		}
	}
	s.jobMu.Unlock()
}

// maybeCloseQueuesLocked closes every lane once shutdown has begun and no
// job is live anymore, letting the writer goroutines drain their
// remaining carcasses and exit.
func (s *Server) maybeCloseQueuesLocked() {
	if !s.closed || s.active > 0 || s.queuesClosed {
		return
	}
	s.queuesClosed = true
	for _, ln := range s.lanes {
		close(ln.q)
	}
	close(s.snapLane.q)
}

// evictExpiredLocked drops finished job records older than the job TTL
// from memory and, once enough evictions accumulated, folds the journal
// down to the retained set.
func (s *Server) evictExpiredLocked() {
	if s.jobTTL <= 0 {
		return
	}
	cutoff := s.now().Add(-s.jobTTL)
	for id, j := range s.jobs {
		if j.terminal() && !j.finished.IsZero() && j.finished.Before(cutoff) {
			delete(s.jobs, id)
			s.evicted++
		}
	}
	if s.journal != nil && s.evicted >= journalCompactEvery {
		if err := s.journal.compact(s.recordsLocked()); err == nil {
			s.evicted = 0
		}
	}
}

// journalCompactEvery is how many evictions may accumulate before the
// journal is folded down to the retained records.
const journalCompactEvery = 32

// journalAppendLocked appends one record when journaling is enabled.
// enqueue treats a failed "queued" append as fatal for the job, so a job
// the journal does not know about never runs.
func (s *Server) journalAppendLocked(rec jobRecord) error {
	if s.journal == nil {
		return nil
	}
	return s.journal.append(rec)
}

// journalTransitionLocked appends a transition record. A failure does not
// fail the job — the in-memory state stays authoritative — but the
// journal's tail may now hold a torn partial record, so it is repaired
// before any further append could compound the damage.
func (s *Server) journalTransitionLocked(rec jobRecord) {
	if err := s.journalAppendLocked(rec); err != nil {
		s.repairJournalLocked()
	}
}

// repairJournalLocked rewrites the journal from in-memory state (an
// atomic whole-file rewrite, bypassing the possibly-torn tail a failed
// append left). If even the rewrite fails, journaling is disabled rather
// than risk feeding a corrupt file to the next restart.
func (s *Server) repairJournalLocked() {
	if s.journal == nil {
		return
	}
	if err := s.journal.compact(s.recordsLocked()); err != nil {
		// Journaling is being disabled; the close error adds nothing.
		_ = s.journal.close()
		s.journal = nil
	}
}

// recordOf renders a job as one merged journal record: its inputs, status
// and transition details, and its finish time once it has finished.
func recordOf(j *job) jobRecord {
	rec := jobRecord{
		ID:     j.id,
		Status: j.status,
		Kind:   j.kind,
		Class:  string(j.class),
		Tables: j.tables,
		Auto:   j.auto,
		Raw:    j.rawSpec,
		After:  j.after,
		RawIDs: j.rawIDs,
		Error:  j.errMsg,
	}
	if !j.finished.IsZero() {
		rec.Unix = j.finished.Unix()
	}
	return rec
}

// recordsLocked renders every retained job as one merged journal record.
func (s *Server) recordsLocked() []jobRecord {
	recs := make([]jobRecord, 0, len(s.jobs))
	for _, j := range s.jobs {
		recs = append(recs, recordOf(j))
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].ID < recs[k].ID })
	return recs
}

// loadJournal replays the job journal at startup: terminal records within
// the TTL come back as queryable history, and jobs that were queued or
// running when the process died come back as "interrupted" with their
// inputs intact. The journal is then compacted to the retained set.
func (s *Server) loadJournal() error {
	recs, maxID, err := replayJobJournal(s.snapshotDir)
	if err != nil {
		return err
	}
	jl, err := openJobJournal(s.snapshotDir)
	if err != nil {
		return err
	}
	s.journal = jl
	if maxID > s.nextJob {
		s.nextJob = maxID
	}
	now := s.now()
	cutoff := now.Add(-s.jobTTL)
	for i := range recs {
		rec := recs[i]
		j := &job{
			id:      rec.ID,
			kind:    rec.Kind,
			status:  rec.Status,
			errMsg:  rec.Error,
			class:   kb.ClassID(rec.Class),
			tables:  rec.Tables,
			auto:    rec.Auto,
			rawSpec: rec.Raw,
			after:   rec.After,
			rawIDs:  rec.RawIDs,
			done:    make(chan struct{}),
		}
		if terminalStatus(rec.Status) {
			j.finished = time.Unix(rec.Unix, 0)
			if s.jobTTL > 0 && j.finished.Before(cutoff) {
				continue // expired; the compaction below drops it
			}
			if rec.Status != statusInterrupted {
				j.rawSpec = nil
			}
		} else {
			// Queued or running at crash time. The engine publishes an
			// epoch atomically at its end, so a killed job committed
			// nothing; report it with resubmittable inputs.
			j.status = statusInterrupted
			j.finished = now
			j.errMsg = fmt.Sprintf(
				"interrupted: the server stopped while this job was %s; nothing of it was committed — resubmit its inputs",
				rec.Status)
		}
		close(j.done)
		s.jobs[j.id] = j
	}
	return s.journal.compact(s.recordsLocked())
}

// startWriters launches one writer goroutine per lane plus the snapshot
// lane, and the waiter that closes writersDone when all of them exit.
func (s *Server) startWriters() {
	run := func(ln *lane) {
		defer s.writersWG.Done()
		for j := range ln.q {
			s.executeJob(ln, j)
		}
	}
	for _, ln := range s.lanes {
		s.writersWG.Add(1)
		go run(ln)
	}
	s.writersWG.Add(1)
	go run(s.snapLane)
	go func() {
		s.writersWG.Wait()
		if s.journal != nil {
			s.jobMu.Lock()
			// Every append fsynced before returning, so a close error at
			// shutdown cannot lose a record; nobody is left to observe it.
			_ = s.journal.close()
			s.journal = nil
			s.jobMu.Unlock()
		}
		close(s.writersDone)
	}()
}

// Close stops accepting jobs, drains every queue fully, and waits for the
// writer goroutines to exit. Safe to call more than once. Shutdown is the
// deadline-bounded form.
func (s *Server) Close() {
	//lteelint:ignore ctxflow Close is the undeadlined form; Shutdown accepts the caller's context
	s.Shutdown(context.Background())
}

// Shutdown stops accepting jobs and waits for the writers to drain their
// queues — dependency chains submitted before shutdown still run to
// completion. If ctx expires first, every still-pending or running
// cancellable job is cancelled (the running ingests unwind at their next
// cooperative checkpoint without committing), and Shutdown returns the
// context's error once the writers have exited. Safe to call more than
// once and concurrently.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.jobMu.Lock()
		s.closed = true
		s.maybeCloseQueuesLocked()
		s.jobMu.Unlock()
	})
	select {
	case <-s.writersDone:
		return nil
	case <-ctx.Done():
	}
	// Both channels may have been ready at once (select picks randomly):
	// a server whose writers already drained must report a clean shutdown
	// even under an expired context.
	select {
	case <-s.writersDone:
		return nil
	default:
	}
	s.CancelActiveJobs()
	<-s.writersDone
	return ctx.Err()
}

// CancelActiveJobs cancels every queued, dependency-waiting, or running
// cancellable job (ingests; snapshots are not cancellable) without
// shutting the server down: queued and waiting jobs complete as cancelled
// immediately (failing their dependents), and a running ingest unwinds at
// its next cooperative checkpoint, committing nothing. The shutdown path
// uses this when its drain grace expires so a final snapshot is not held
// hostage by in-flight work.
func (s *Server) CancelActiveJobs() {
	s.jobMu.Lock()
	// Snapshot the job set first: completing a job mutates s.jobs'
	// dependents links, and map iteration must not observe that.
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	for _, j := range jobs {
		if j.cancel == nil || j.terminal() {
			continue
		}
		switch j.status {
		case statusQueued:
			s.completeJobLocked(j, statusCancelled, "cancelled while queued")
		case statusRunning:
			j.cancel()
		}
	}
	s.jobMu.Unlock()
}

// Snapshot synchronously persists the current state through the snapshot
// lane and returns the manifest. It is SnapshotCtx without a deadline.
func (s *Server) Snapshot() (kb.Manifest, error) {
	//lteelint:ignore ctxflow Snapshot is the undeadlined form; SnapshotCtx accepts the caller's context
	return s.SnapshotCtx(context.Background())
}

// SnapshotCtx synchronously persists the current state and returns the
// manifest. A momentarily full snapshot lane is retried until ctx
// expires — the shutdown path bounds this with its drain grace, so a
// packed queue can no longer spin the final snapshot forever.
func (s *Server) SnapshotCtx(ctx context.Context) (kb.Manifest, error) {
	if s.snapshotDir == "" {
		return kb.Manifest{}, errors.New("serve: no snapshot directory configured")
	}
	var j *job
	for {
		var err error
		j, err = s.enqueue(&job{kind: jobSnapshot})
		if err == nil {
			break
		}
		if !errors.Is(err, errQueueFull) {
			return kb.Manifest{}, err
		}
		select {
		case <-ctx.Done():
			return kb.Manifest{}, fmt.Errorf("serve: snapshot not enqueued: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return kb.Manifest{}, fmt.Errorf("serve: snapshot still pending: %w", ctx.Err())
	}
	v := s.viewJob(j)
	if v.Status != statusDone {
		return kb.Manifest{}, fmt.Errorf("serve: snapshot failed: %s", v.Error)
	}
	return *v.Manifest, nil
}

// ---- job execution ----

func (s *Server) runIngest(j *job) {
	// Ingests run under the read half of execMu: per-class writers
	// proceed in parallel with each other, never with a snapshot.
	s.execMu.RLock()
	defer s.execMu.RUnlock()
	// Admission control re-checked at execution time: a job enqueued just
	// before a predecessor poisoned the class must not run on the
	// corrupted engine state.
	s.jobMu.Lock()
	reason, bad := s.poisoned[j.class]
	s.jobMu.Unlock()
	if bad {
		s.completeJob(j, statusFailed,
			fmt.Sprintf("class refuses ingests after an engine panic: %s", reason))
		return
	}
	eng := s.engines[j.class]
	// IngestedIDs (not TableIDs) so tables restored from a snapshot count
	// as done: "auto" must keep advancing after a warm restart.
	ingested := make(map[int]bool)
	for _, id := range eng.IngestedIDs() {
		ingested[id] = true
	}
	ids := make([]int, 0, len(j.tables)+len(j.raw))
	for _, id := range j.tables {
		if s.corpus.Table(id) == nil {
			s.completeJob(j, statusFailed, fmt.Sprintf("unknown corpus table %d", id))
			return
		}
		ids = append(ids, id)
	}
	// Auto mode: the next j.auto not-yet-ingested classified tables.
	if j.auto > 0 {
		picked := 0
		for _, id := range s.tables[j.class] {
			if picked == j.auto {
				break
			}
			if !ingested[id] {
				ids = append(ids, id)
				picked++
			}
		}
	}
	// A batch that resolves to nothing new never reaches the engine: an
	// epoch re-runs entity creation and detection over everything retained,
	// so a no-op request must not be able to burn that work (or inflate
	// epoch counters) for free.
	fresh := false
	for _, id := range ids {
		if !ingested[id] {
			fresh = true
			break
		}
	}
	if !fresh && len(j.raw) == 0 {
		// TotalTables mirrors the engine's own stats semantics (tables in
		// the retained output, excluding Resume-restored ones) so the
		// counter never moves backwards between a no-op and a real epoch.
		stats := core.IngestStats{
			Epoch:       eng.Epoch(),
			TotalTables: len(eng.TableIDs()),
			KBInstances: s.kb.NumInstances(),
		}
		s.setJob(j, func(j *job) { j.stats = &stats })
		s.completeJob(j, statusDone, "")
		return
	}
	// Raw tables join the corpus on this class's writer goroutine; Append
	// is concurrent-safe against the other writers and corpus readers.
	preLen := s.corpus.Len()
	var rawIDs []int
	for _, t := range j.raw {
		id := s.corpus.Append(t)
		ids = append(ids, id)
		rawIDs = append(rawIDs, id)
	}
	if len(rawIDs) > 0 {
		// Journal the appended IDs so an interrupted job's report carries
		// them (the retry-by-ID contract within a process lifetime).
		s.jobMu.Lock()
		j.rawIDs = rawIDs
		s.journalTransitionLocked(jobRecord{ID: j.id, Status: statusRunning, RawIDs: rawIDs, Unix: s.now().Unix()})
		s.jobMu.Unlock()
	}
	// Contain an engine panic here rather than in executeJob's backstop:
	// when this job's appended raw tables are still the corpus tail (no
	// other class appended since), they are rolled back so a client retry
	// cannot duplicate them; either way the class is poisoned — the
	// engine's retained state can no longer be trusted, so further
	// ingests for this class are refused until a restart.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.corpus.TruncateIf(preLen, preLen+len(j.raw))
		s.jobMu.Lock()
		s.poisoned[j.class] = fmt.Sprintf("%v", r)
		s.jobMu.Unlock()
		s.completeJob(j, statusFailed,
			fmt.Sprintf("ingest panic (class now refuses ingests): %v", r))
	}()
	ctx := j.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	_, stats, err := eng.Ingest(ctx, ids)
	if err != nil {
		// A cancelled epoch committed nothing (the engine publishes
		// atomically at its end), so the class stays healthy — unlike a
		// panic, cancellation does not poison it. Appended raw tables are
		// NOT rolled back: the engine may already have absorbed their
		// labels into its persistent blocking/PHI statistics (keyed by
		// table ID), and truncating the corpus would rebind those IDs to
		// future tables with different content, corrupting later epochs.
		// The tables stay appended and un-ingested; a retry references
		// them by ID instead of re-uploading.
		rawMsg := ""
		if len(rawIDs) > 0 {
			rawMsg = fmt.Sprintf("; the %d uploaded raw tables remain appended as corpus IDs %v (not ingested) — retry with {\"tables\": %v}", len(rawIDs), rawIDs, rawIDs)
		}
		if errors.Is(err, context.Canceled) {
			s.completeJob(j, statusCancelled, "cancelled before completing; no epoch was committed"+rawMsg)
		} else {
			s.completeJob(j, statusFailed, err.Error()+rawMsg)
		}
		return
	}
	s.setJob(j, func(j *job) { j.stats = &stats })
	s.completeJob(j, statusDone, "")
}

func (s *Server) runSnapshot(j *job) {
	// Snapshots take the write half of execMu: every per-class writer is
	// quiesced, so the manifest's epoch/table bookkeeping and the KB
	// instance chain are pinned together.
	s.execMu.Lock()
	defer s.execMu.Unlock()
	meta := kb.Manifest{
		WorldKey: s.worldKey,
		Epochs:   make(map[string]int, len(s.engines)),
		Tables:   make(map[string][]int, len(s.engines)),
	}
	for class, eng := range s.engines {
		meta.Epochs[string(class)] = eng.Epoch()
		ids := make([]int, 0)
		for _, id := range eng.IngestedIDs() {
			if id < s.baseTables {
				ids = append(ids, id)
			}
		}
		meta.Tables[string(class)] = ids
	}
	m, err := s.kb.SaveSnapshot(s.snapshotDir, meta)
	if err != nil {
		s.completeJob(j, statusFailed, err.Error())
		return
	}
	// Each save appends one delta segment; fold the chain back into a
	// single segment once it is long enough that cold-start replay (and
	// the per-segment file overhead) starts to matter. Compaction failure
	// does not fail the job — the saved chain is already durable and
	// loadable — but it is surfaced in the job record.
	if s.compactAfter > 0 && len(m.Segments) >= s.compactAfter {
		cm, cerr := kb.CompactSnapshot(s.snapshotDir)
		if cerr != nil {
			s.setJob(j, func(j *job) { j.manifest = &m })
			s.completeJob(j, statusDone, fmt.Sprintf("snapshot saved, but compaction failed: %v", cerr))
			return
		}
		m = cm
	}
	s.setJob(j, func(j *job) { j.manifest = &m })
	s.completeJob(j, statusDone, "")
}
