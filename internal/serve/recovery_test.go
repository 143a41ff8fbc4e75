package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
)

// journalServer builds a single-class server over dir whose engine parks
// at its first progress event whenever park is set, signalling started.
// Each call regenerates the deterministic fixture, so two servers over
// the same dir model the same deployment across a process restart.
func journalServer(t testing.TB, dir string, park *atomic.Bool, started chan struct{}) (*Server, []int) {
	t.Helper()
	w, c, tables := fixture(t)
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	gate := make(chan struct{})
	if park != nil {
		cfg.Progress = func(core.Event) {
			if !park.Load() {
				return
			}
			select {
			case started <- struct{}{}:
			default:
			}
			<-gate
		}
	}
	s, err := New(Config{
		KB:     w.KB,
		Corpus: c,
		Engines: map[kb.ClassID]*core.Engine{
			kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{}),
		},
		SnapshotDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(func() {
		park.Store(false)
		close(gate) // unpark before Close drains
	})
	return s, tables
}

// TestServeInterruptedJobRecovery simulates a crash mid-ingest: a job is
// parked while running (its "running" record already journaled) and the
// process is abandoned without any shutdown. The restarted server must
// report the job as interrupted with its resubmittable inputs, and
// resubmitting them must produce exactly the state a crash-free run
// reaches — the commits-nothing invariant makes the retry safe.
func TestServeInterruptedJobRecovery(t *testing.T) {
	dir := t.TempDir()
	var park atomic.Bool
	started := make(chan struct{}, 1)
	s1, tables := journalServer(t, dir, &park, started)
	batch1, batch2 := tables[:1], tables[1:2]

	ingestWait(t, s1, batch1)
	var snap JobView
	if code := do(t, s1, http.MethodPost, "/v1/snapshot?wait=1", "", &snap); code != 200 || snap.Status != statusDone {
		t.Fatalf("snapshot = %d %+v", code, snap)
	}

	// The doomed job: journaled as queued and running, then the process
	// "dies" (the server is simply abandoned; nothing is closed).
	park.Store(true)
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: batch2})
	var doomed JobView
	do(t, s1, http.MethodPost, "/v1/ingest", string(body), &doomed)
	<-started
	// The doomed job is now blocked inside its gate; clearing park keeps
	// the restarted server (which shares the flag) from parking too.
	park.Store(false)

	// "Restart": a second server over the same directory.
	s2, _ := journalServer(t, dir, &park, started)
	if s2.Warm == nil {
		t.Fatal("restarted server did not warm-start")
	}
	var jl JobsView
	do(t, s2, http.MethodGet, "/v1/jobs?status=interrupted", "", &jl)
	if len(jl.Jobs) != 1 {
		t.Fatalf("interrupted jobs after restart = %+v", jl.Jobs)
	}
	ij := jl.Jobs[0]
	if ij.ID != doomed.ID || ij.Kind != jobIngest || ij.Inputs == nil {
		t.Fatalf("interrupted job = %+v", ij)
	}
	if fmt.Sprint(ij.Inputs.Tables) != fmt.Sprint(batch2) {
		t.Fatalf("interrupted inputs = %v, want %v", ij.Inputs.Tables, batch2)
	}

	// The interrupted record is history, not a live job: it cannot be
	// cancelled, only resubmitted.
	if code := do(t, s2, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", ij.ID), "", nil); code != http.StatusConflict {
		t.Errorf("cancelling an interrupted job = %d, want 409", code)
	}

	// Resubmit the reported inputs and compare against a crash-free
	// control deployment (same snapshot point, same second batch).
	resub, _ := json.Marshal(IngestRequest{Class: ij.Class, Tables: ij.Inputs.Tables})
	var rv JobView
	if code := do(t, s2, http.MethodPost, "/v1/ingest?wait=1", string(resub), &rv); code != 200 || rv.Status != statusDone {
		t.Fatalf("resubmitted ingest = %d %+v", code, rv)
	}

	ctrlDir := t.TempDir()
	var ctrlPark atomic.Bool
	c1, _ := journalServer(t, ctrlDir, &ctrlPark, nil)
	ingestWait(t, c1, batch1)
	if code := do(t, c1, http.MethodPost, "/v1/snapshot?wait=1", "", nil); code != 200 {
		t.Fatalf("control snapshot = %d", code)
	}
	c1.Close()
	c2, _ := journalServer(t, ctrlDir, &ctrlPark, nil)
	ingestWait(t, c2, batch2)

	var crashed, control EntitiesView
	do(t, s2, http.MethodGet, "/v1/classes/GF-Player/entities", "", &crashed)
	do(t, c2, http.MethodGet, "/v1/classes/GF-Player/entities", "", &control)
	cb, _ := json.Marshal(crashed)
	gb, _ := json.Marshal(control)
	if string(cb) != string(gb) {
		t.Errorf("recovered state diverges from crash-free control:\nrecovered: %s\ncontrol:   %s", cb, gb)
	}
}

// TestServeJournalAppendCrash fails the disk write of a job's admission
// record: the job must be refused — the scheduler never runs work a
// restart would not know about — and both the running server and a
// restarted one must carry on with an intact journal. The torn tails a
// power cut leaves are TestCrashEveryDurableStep's.
func TestServeJournalAppendCrash(t *testing.T) {
	var armed atomic.Bool
	prev := kb.BeforeStep
	kb.BeforeStep = func(kind kb.StepKind, _ string) error {
		if kind == kb.StepJournalWrite && armed.CompareAndSwap(true, false) {
			return errors.New("simulated disk failure")
		}
		return nil
	}
	t.Cleanup(func() { kb.BeforeStep = prev })
	dir := t.TempDir()
	var park atomic.Bool
	s1, tables := journalServer(t, dir, &park, nil)
	done := ingestWait(t, s1, tables[:1])

	armed.Store(true)
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[1:2]})
	if code := do(t, s1, http.MethodPost, "/v1/ingest", string(body), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest during journal failure = %d, want 503", code)
	}

	// The journal healed in place: a follow-up job on the same server
	// journals and runs normally.
	after := ingestWait(t, s1, tables[1:2])

	// A restart sees exactly the two completed jobs — no ghost of the
	// refused one.
	s2, _ := journalServer(t, dir, &park, nil)
	var jl JobsView
	do(t, s2, http.MethodGet, "/v1/jobs", "", &jl)
	ids := make(map[int64]string, len(jl.Jobs))
	for _, j := range jl.Jobs {
		ids[j.ID] = j.Status
	}
	if len(ids) != 2 || ids[done.ID] != statusDone || ids[after.ID] != statusDone {
		t.Fatalf("jobs after restart = %+v", jl.Jobs)
	}
}

// TestJournalReplayTornTail exercises replay directly: a journal whose
// final line is a torn partial record (no newline, half the bytes) must
// fold every record before it and stop there.
func TestJournalReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	must := func(rec jobRecord) {
		t.Helper()
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(jobRecord{ID: 1, Status: statusQueued, Kind: jobIngest, Class: "c", Tables: []int{7}, Unix: 100})
	must(jobRecord{ID: 1, Status: statusRunning, Unix: 101})
	must(jobRecord{ID: 1, Status: statusDone, Unix: 102})
	must(jobRecord{ID: 2, Status: statusQueued, Kind: jobIngest, Class: "c", Auto: 3, After: []int64{1}, Unix: 103})
	// Tear the tail: half of a record for job 2, no newline.
	raw, _ := json.Marshal(jobRecord{ID: 2, Status: statusRunning, Unix: 104})
	if _, err := jl.f.Write(raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	jl.close()

	recs, maxID, err := replayJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if maxID != 2 || len(recs) != 2 {
		t.Fatalf("replay = %d records, maxID %d", len(recs), maxID)
	}
	if recs[0].ID != 1 || recs[0].Status != statusDone || recs[0].Unix != 102 || len(recs[0].Tables) != 1 {
		t.Errorf("folded record 1 = %+v", recs[0])
	}
	// Job 2's torn running record is discarded; its queued record, with
	// inputs intact, survives — exactly what interrupted reporting needs.
	if recs[1].ID != 2 || recs[1].Status != statusQueued || recs[1].Auto != 3 || len(recs[1].After) != 1 {
		t.Errorf("folded record 2 = %+v", recs[1])
	}

	// Replay after appending beyond a compaction still works.
	jl2, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl2.compact(recs); err != nil {
		t.Fatal(err)
	}
	if err := jl2.append(jobRecord{ID: 3, Status: statusQueued, Kind: jobSnapshot, Unix: 105}); err != nil {
		t.Fatal(err)
	}
	jl2.close()
	recs, maxID, err = replayJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || maxID != 3 {
		t.Fatalf("replay after compaction = %d records, maxID %d", len(recs), maxID)
	}
}

// FuzzReplayJobJournal replays arbitrary jobs.ndjson bytes. Replay must
// not panic or hang, and it must be idempotent under compaction: the
// records replayed from what compact writes equal the records compacted.
func FuzzReplayJobJournal(f *testing.F) {
	f.Add([]byte(`{"id":1,"status":"queued","kind":"ingest","class":"c","tables":[7],"unix":100}
{"id":1,"status":"running","unix":101}
{"id":1,"status":"done","rawIDs":[3],"unix":102}
{"id":2,"status":"queued","kind":"ingest","raw":[{"headers":["a","b"],"rows":[["x","1"]]}],"after":[1]}
{"id":2,"stat`))
	f.Add([]byte("{\"id\":3,\"status\":\"failed\",\"error\":\"\xff\",\"tables\":[]}\n\n{\"id\":-1}\n"))
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, maxID, err := replayJobJournal(dir)
		if err != nil {
			return // a line past the scanner's limit is an error, not a crash
		}
		want, _ := json.Marshal(recs)
		jl, err := openJobJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := jl.compact(recs); err != nil {
			t.Fatal(err)
		}
		if err := jl.close(); err != nil {
			t.Fatal(err)
		}
		again, againMax, err := replayJobJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(again); string(got) != string(want) || againMax != maxID {
			t.Fatalf("replay after compaction = %s (max id %d), want %s (max id %d)", got, againMax, want, maxID)
		}
	})
}

// TestServeJournalDisabled: DisableJournal keeps the snapshot directory
// free of a job journal and a restart reports no interrupted jobs.
func TestServeJournalDisabled(t *testing.T) {
	dir := t.TempDir()
	w, c, tables := fixture(t)
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	s, err := New(Config{
		KB:     w.KB,
		Corpus: c,
		Engines: map[kb.ClassID]*core.Engine{
			kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{}),
		},
		SnapshotDir:    dir,
		DisableJournal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ingestWait(t, s, tables[:1])
	if _, err := os.Stat(filepath.Join(dir, journalFile)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("journal file exists despite DisableJournal (stat err %v)", err)
	}
}

// TestJournalClosePropagatesError is the regression test for the errdrop
// finding in jobJournal.close: the handle's Close error used to be
// discarded, so a sick filesystem at compaction time went unnoticed. The
// error must now reach close's caller — and through compact, the
// scheduler — while a second close of an already-released journal stays
// a clean no-op.
func TestJournalClosePropagatesError(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: release the descriptor underneath the journal so the
	// journal's own Close fails.
	if err := jl.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.close(); err == nil {
		t.Fatal("close() after the handle already closed returned nil; the Close error was dropped")
	}
	if err := jl.close(); err != nil {
		t.Fatalf("close() of a released journal: %v", err)
	}

	// The same error must surface through compact, which closes the old
	// handle before reopening the compacted file.
	jl2, err := openJobJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl2.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl2.compact(nil); err == nil {
		t.Fatal("compact() with a failing journal close returned nil")
	}
}
