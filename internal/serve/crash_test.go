package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/webtable"
	"repro/internal/world"
)

// allStepKinds is every primitive durable step kb.BeforeStep names; the
// scripted history must reach each of them.
var allStepKinds = []kb.StepKind{
	kb.StepCreateTemp, kb.StepFill, kb.StepFsync, kb.StepClose, kb.StepRename,
	kb.StepOpenDir, kb.StepFsyncDir, kb.StepJournalOpen, kb.StepJournalWrite,
	kb.StepJournalFsync, kb.StepJournalReopen, kb.StepRemove, kb.StepMkdir,
}

// crashOps is the scripted history: two ingest epochs with write-back, a
// snapshot, one more epoch, a second snapshot whose two-segment chain
// compacts (CompactAfter 2), and a restart that replays and compacts the
// job journal. Each op reports whether its operation failed.
var crashOps = []struct {
	name string
	do   func(h *crashHistory) error
}{
	{"start", (*crashHistory).start},
	{"ingest", func(h *crashHistory) error { return h.ingest(0) }},
	{"ingest", func(h *crashHistory) error { return h.ingest(1) }},
	{"snapshot", (*crashHistory).snapshot},
	{"ingest", func(h *crashHistory) error { return h.ingest(2) }},
	{"snapshot+compact", (*crashHistory).snapshot},
	{"restart", (*crashHistory).start},
}

// crashServer starts a GF-Player server over dir on a fresh fixture
// world and corpus, skipping fixture's table classification: the test
// classifies once. The caller closes the server, because the enumeration
// starts hundreds of them.
func crashServer(dir string) (*Server, error) {
	w := world.Generate(world.DefaultConfig(0.2))
	c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	return New(Config{
		KB:           w.KB,
		Corpus:       c,
		Engines:      map[kb.ClassID]*core.Engine{kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{})},
		SnapshotDir:  dir,
		CompactAfter: 2,
	})
}

// crashHistory is one server lineage over dir running crashOps on the
// fixture's GF-Player tables.
type crashHistory struct {
	t      *testing.T
	dir    string
	tables []int
	s      *Server
}

// start builds a server over the directory as it stands. A previous
// server is abandoned, not shut down: it is closed only once the new one
// has started, and Close writes nothing.
func (h *crashHistory) start() error {
	s, err := crashServer(h.dir)
	h.close()
	h.s = s
	return err
}

func (h *crashHistory) close() {
	if h.s != nil {
		h.s.Close()
		h.s = nil
	}
}

// ingest runs the i-th batch of four tables, which must write back.
func (h *crashHistory) ingest(i int) error {
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: h.tables[4*i : 4*i+4]})
	var jv JobView
	code := do(h.t, h.s, http.MethodPost, "/v1/ingest?wait=1", string(body), &jv)
	if err := jobErr(code, jv); err != nil || jv.Stats.WrittenBack == 0 {
		return fmt.Errorf("ingest: %w, stats %+v", err, jv.Stats)
	}
	return nil
}

func (h *crashHistory) snapshot() error {
	var jv JobView
	return jobErr(do(h.t, h.s, http.MethodPost, "/v1/snapshot?wait=1", "", &jv), jv)
}

// errRefused reports a job the server refused to admit.
var errRefused = errors.New("job refused")

// jobErr is nil for a job that finished done, and errRefused for a job
// the server never admitted.
func jobErr(code int, jv JobView) error {
	switch {
	case jv.ID == 0:
		return fmt.Errorf("%w: %d", errRefused, code)
	case code != http.StatusOK || jv.Status != statusDone:
		return fmt.Errorf("job %d = %d %s %s", jv.ID, code, jv.Status, jv.Error)
	}
	return nil
}

// crashState is what a restart recovers: the KB's instances and the job
// history.
type crashState struct {
	kb   string
	jobs []JobView
}

// recoverState restarts a server over dir and reads its state.
func recoverState(t *testing.T, dir string) (crashState, error) {
	s, err := crashServer(dir)
	if err != nil {
		return crashState{}, fmt.Errorf("restart: %w", err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.kb.WriteInstances(&buf); err != nil {
		t.Fatal(err)
	}
	var jl JobsView
	do(t, s, http.MethodGet, "/v1/jobs", "", &jl)
	return crashState{kb: buf.String(), jobs: jl.Jobs}, nil
}

// splitJob returns jobs without the job id, as JSON, and that job.
func splitJob(jobs []JobView, id int64) (string, *JobView) {
	var own *JobView
	rest := make([]JobView, 0, len(jobs))
	for i := range jobs {
		if jobs[i].ID == id {
			own = &jobs[i]
		} else {
			rest = append(rest, jobs[i])
		}
	}
	raw, _ := json.Marshal(rest)
	return string(raw), own
}

// checkRecovered fails unless got is the state before the operation or
// the state after it. The operation's own job (id own, 0 when it has
// none) may also read failed or interrupted, with its inputs intact.
func checkRecovered(got, before, after crashState, own int64) error {
	if got.kb != before.kb && got.kb != after.kb {
		return errors.New("the KB's instances match neither the state before the operation nor after it")
	}
	gotRest, gotOwn := splitJob(got.jobs, own)
	wantRest, wantOwn := splitJob(after.jobs, own)
	if gotRest != wantRest {
		return fmt.Errorf("jobs %s, want %s", gotRest, wantRest)
	}
	switch {
	case gotOwn == nil:
		if got.kb != before.kb {
			return errors.New("the operation's job is gone but its KB change survived")
		}
	case gotOwn.Status == statusDone:
		if got.kb != after.kb {
			return errors.New("the operation's job is done but its KB change is lost")
		}
		g, w := *gotOwn, *wantOwn
		g.Error, w.Error = "", "" // a failed compaction leaves a done snapshot an error
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("job %+v, want %+v", g, w)
		}
	case gotOwn.Status == statusFailed || gotOwn.Status == statusInterrupted:
		if !reflect.DeepEqual(gotOwn.Inputs, wantOwn.Inputs) {
			return fmt.Errorf("%s job lost its inputs: %+v, want %+v", gotOwn.Status, gotOwn.Inputs, wantOwn.Inputs)
		}
	default:
		return fmt.Errorf("the operation's job reads %s", gotOwn.Status)
	}
	return nil
}

// crashRun is one pass of the history. Only steps on its dir count:
// failAt is the step that returns an error (-1: none), and model, when
// set, records the crashes before each step.
type crashRun struct {
	dir    string
	op     int
	failAt int
	steps  []crashStep
	model  *diskModel
}

type crashStep struct {
	kind kb.StepKind
	path string
	op   int
}

func (st crashStep) String() string {
	return fmt.Sprintf("%s %s in op %d (%s)", st.kind, filepath.Base(st.path), st.op, crashOps[st.op-1].name)
}

// crashHook is the one kb.BeforeStep of the test, routing steps to the
// current run.
type crashHook struct {
	mu  sync.Mutex
	run *crashRun
}

// at makes run (nil: none) the current run, inside operation op.
func (h *crashHook) at(run *crashRun, op int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.run = run
	if run != nil {
		run.op = op
	}
}

func (h *crashHook) step(kind kb.StepKind, path string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.run
	if r == nil || (path != r.dir && filepath.Dir(path) != r.dir) {
		return nil
	}
	i := len(r.steps)
	r.steps = append(r.steps, crashStep{kind: kind, path: path, op: r.op})
	if r.model != nil {
		r.model.before(i, kind, path)
	}
	if i == r.failAt {
		return fmt.Errorf("injected failure of step %d", i)
	}
	return nil
}

// diskModel tracks what a power cut would leave of a directory: the
// names of its last directory fsync, each holding its file's content as
// of that file's last fsync. Unsynced bytes are dropped, and so are
// renames and removes the directory fsync has not covered. Files are
// told apart by os.SameFile, so a rename moves a file.
type diskModel struct {
	dir     string
	live    map[string]int      // name -> file, as last listed
	infos   map[int]os.FileInfo // file -> its FileInfo, for live files
	files   int
	names   map[string]int // the listing at the last directory fsync
	synced  map[int][]byte // file -> content at its last fsync
	written string         // the file the last write step wrote
	cuts    []crashCut
	err     error
}

// crashCut is the directory a crash just before step leaves: a power
// cut, a power cut that tears the unsynced tail of the file last written
// in half, or a process kill, which keeps everything written.
type crashCut struct {
	step  int
	mode  string
	files map[string][]byte
}

func newDiskModel(dir string) *diskModel {
	return &diskModel{dir: dir, names: map[string]int{}, synced: map[int][]byte{}}
}

// before records the crashes just before step i, then applies what the
// step makes durable.
func (m *diskModel) before(i int, kind kb.StepKind, path string) {
	m.list()
	m.cuts = append(m.cuts, crashCut{step: i, mode: "power cut", files: m.image(false)},
		crashCut{step: i, mode: "process kill", files: readDir(m.dir)})
	if torn := m.image(true); torn != nil {
		m.cuts = append(m.cuts, crashCut{step: i, mode: "torn power cut", files: torn})
	}
	switch kind {
	case kb.StepFsync, kb.StepJournalFsync:
		raw, err := os.ReadFile(path)
		if err != nil {
			m.err = err
		}
		m.synced[m.live[filepath.Base(path)]] = raw
	case kb.StepFsyncDir:
		m.names = maps.Clone(m.live)
	case kb.StepFill, kb.StepJournalWrite:
		m.written = filepath.Base(path)
	}
}

// list refreshes the live names. A file not live at the last listing is
// a new file, so a reused inode number never revives a removed one.
func (m *diskModel) list() {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		m.err = err
	}
	live, infos := make(map[string]int, len(ents)), make(map[int]os.FileInfo, len(ents))
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			m.err = err
			continue
		}
		id := 0
		for old, ofi := range m.infos {
			if os.SameFile(fi, ofi) {
				id = old
			}
		}
		if id == 0 {
			m.files++
			id = m.files
		}
		live[e.Name()] = id
		infos[id] = fi
	}
	m.live, m.infos = live, infos
}

// image is the directory a power cut now leaves, or with torn, the same
// with half of the last written file's unsynced tail kept; nil when that
// file has no durable name or no unsynced tail.
func (m *diskModel) image(torn bool) map[string][]byte {
	files := make(map[string][]byte, len(m.names))
	for name, id := range m.names {
		files[name] = m.synced[id]
	}
	if !torn {
		return files
	}
	id, ok := m.names[m.written]
	if !ok || m.live[m.written] != id {
		return nil
	}
	cur, err := os.ReadFile(filepath.Join(m.dir, m.written))
	synced := m.synced[id]
	if err != nil || len(cur)-len(synced) < 2 || !bytes.HasPrefix(cur, synced) {
		return nil
	}
	files[m.written] = cur[:len(synced)+(len(cur)-len(synced))/2]
	return files
}

// writeDir writes files into a fresh directory.
func writeDir(t *testing.T, files map[string][]byte) string {
	dir := t.TempDir()
	for name, raw := range files {
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readDir reads every file of dir: what a process crash, as opposed to a
// power cut, leaves.
func readDir(dir string) map[string][]byte {
	ents, _ := os.ReadDir(dir)
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if raw, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
			files[e.Name()] = raw
		}
	}
	return files
}

// TestCrashEveryDurableStep enumerates every primitive durable step of a
// scripted history through kb.BeforeStep and crashes at each of them, in
// the manner of "All File Systems Are Not Created Equal" (Pillai et al.,
// OSDI 2014):
//
//   - the step returns an error, the operation finishes as the server
//     handles it, and the process dies; the same server must then still
//     accept and finish the next job, and a job it refused must not come
//     back;
//   - a power cut just before the step, modelled by diskModel, once as is
//     and once with a torn tail when the last write is unsynced;
//   - a process kill just before the step, which keeps every byte written.
//
// A restart must then recover the state a crash-free run recovers after
// the operation before or after the one cut short.
func TestCrashEveryDurableStep(t *testing.T) {
	hook := &crashHook{}
	prev := kb.BeforeStep
	kb.BeforeStep = hook.step
	t.Cleanup(func() { kb.BeforeStep = prev })

	// The crash-free run records every step and every crash before one,
	// and the state a restart recovers after each operation.
	ref := &crashRun{dir: t.TempDir(), failAt: -1}
	ref.model = newDiskModel(ref.dir)
	empty, err := recoverState(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	states := []crashState{empty}
	own := []int64{0}
	_, _, tables := fixture(t)
	h := &crashHistory{t: t, dir: ref.dir, tables: tables}
	for k, op := range crashOps {
		hook.at(ref, k+1)
		if err := op.do(h); err != nil {
			t.Fatalf("crash-free %s: %v", op.name, err)
		}
		hook.at(nil, 0)
		st, err := recoverState(t, writeDir(t, readDir(ref.dir)))
		if err != nil {
			t.Fatalf("after %s: %v", op.name, err)
		}
		var id int64 // the operation's own job: the one it added
		for _, j := range st.jobs {
			if _, prior := splitJob(states[k].jobs, j.ID); prior == nil {
				id = j.ID
			}
		}
		states, own = append(states, st), append(own, id)
	}
	h.close()
	if ref.model.err != nil {
		t.Fatal(ref.model.err)
	}
	hit := make(map[kb.StepKind]bool)
	for _, st := range ref.steps {
		hit[st.kind] = true
	}
	for _, kind := range allStepKinds {
		if !hit[kind] {
			t.Errorf("the history never reaches a %s step", kind)
		}
	}

	modes := make(map[string]int)
	for _, cut := range ref.model.cuts {
		st := ref.steps[cut.step]
		got, err := recoverState(t, writeDir(t, cut.files))
		if err == nil {
			err = checkRecovered(got, states[st.op-1], states[st.op], own[st.op])
		}
		if err != nil {
			t.Errorf("%s before step %d, %v: %v", cut.mode, cut.step, st, err)
		}
		modes[cut.mode]++
	}
	// The snapshot's removal of unreferenced files ends with a directory
	// fsync, after which a power cut leaves no segment the manifest does
	// not list.
	cleanups := 0
	for _, cut := range ref.model.cuts {
		if cut.mode != "power cut" || !afterCleanup(ref.steps, cut.step) {
			continue
		}
		cleanups++
		if orphans := unlistedSegments(t, cut.files); len(orphans) > 0 {
			t.Errorf("power cut before step %d, %v: segments %v are not in the manifest", cut.step, ref.steps[cut.step], orphans)
		}
	}
	if cleanups == 0 {
		t.Error("no power cut follows a directory fsync after removing unreferenced files")
	}

	for i, st := range ref.steps {
		run := &crashRun{dir: t.TempDir(), failAt: i}
		h := &crashHistory{t: t, dir: run.dir, tables: tables}
		var opErr error
		for k := 1; k <= st.op; k++ {
			hook.at(run, k)
			if opErr = crashOps[k-1].do(h); opErr != nil && k < st.op {
				t.Fatalf("failing step %d: earlier %s failed: %v", i, crashOps[k-1].name, opErr)
			}
		}
		hook.at(nil, 0)
		if len(run.steps) <= i || run.steps[i].kind != st.kind {
			t.Fatalf("failing step %d, %v: the run took other steps than the crash-free one", i, st)
		}
		got, err := recoverState(t, writeDir(t, readDir(run.dir)))
		if err == nil {
			err = checkRecovered(got, states[st.op-1], states[st.op], own[st.op])
		}
		if _, ghost := splitJob(got.jobs, own[st.op]); err == nil && errors.Is(opErr, errRefused) && ghost != nil {
			err = fmt.Errorf("the refused job came back as %s", ghost.Status)
		}
		if err == nil && h.s != nil {
			err = h.ingest(3) // heals in place: the same server runs the next job
		}
		if err != nil {
			t.Errorf("error at step %d, %v: %v", i, st, err)
		}
		h.close()
	}
	t.Logf("%d durable steps over %d operations, each failed with an error; crashes before them: %v; %d power cuts after an orphan cleanup",
		len(ref.steps), len(crashOps), modes, cleanups)
}

// afterCleanup reports whether step i directly follows the directory
// fsync that ends a removal of unreferenced snapshot files.
func afterCleanup(steps []crashStep, i int) bool {
	return i >= 3 && steps[i-1].kind == kb.StepFsyncDir && steps[i-2].kind == kb.StepOpenDir &&
		steps[i-3].kind == kb.StepRemove
}

// unlistedSegments returns the segment files among files that the
// manifest among them does not list, in name order.
func unlistedSegments(t *testing.T, files map[string][]byte) []string {
	var m kb.Manifest
	if err := json.Unmarshal(files["manifest.json"], &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	listed := make(map[string]bool, len(m.Segments))
	for _, seg := range m.Segments {
		listed[seg.File] = true
	}
	var out []string
	for name := range files {
		if strings.HasPrefix(name, "segment-") && !listed[name] {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}
