package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/webtable"
	"repro/internal/world"
)

// fixture generates a private world and corpus plus the table-to-class
// assignment; serve tests grow the KB and corpus and must not share
// fixtures with other tests.
func fixture(t testing.TB) (*world.World, *webtable.Corpus, []int) {
	t.Helper()
	w := world.Generate(world.DefaultConfig(0.2))
	c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
	byClass, _ := core.ClassifyTables(context.Background(), w.KB, c, 0.3, 0)
	tables := byClass[kb.ClassGFPlayer]
	if len(tables) < 2 {
		t.Fatal("fixture needs at least two GF-Player tables")
	}
	return w, c, tables
}

// newTestServer builds a server over a fresh fixture with one GF-Player
// engine. snapshotDir may be empty.
func newTestServer(t testing.TB, snapshotDir string) (*Server, []int) {
	t.Helper()
	w, c, tables := fixture(t)
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	s, err := New(Config{
		KB:     w.KB,
		Corpus: c,
		Engines: map[kb.ClassID]*core.Engine{
			kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{}),
		},
		SnapshotDir: snapshotDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, tables
}

// do performs one request against the server's handler and decodes the
// JSON response into out (skipped when out is nil).
func do(t testing.TB, s *Server, method, target, body string, out any) int {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// ingestWait ingests the given corpus tables synchronously and returns the
// finished job view.
func ingestWait(t testing.TB, s *Server, tables []int) JobView {
	t.Helper()
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables})
	var jv JobView
	code := do(t, s, http.MethodPost, "/v1/ingest?wait=1", string(body), &jv)
	if code != http.StatusOK || jv.Status != statusDone {
		t.Fatalf("ingest = %d %+v", code, jv)
	}
	return jv
}

func TestServeLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, tables := newTestServer(t, dir)
	lo := len(tables) / 2

	var health map[string]string
	if code := do(t, s, http.MethodGet, "/healthz", "", &health); code != 200 || health["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, health)
	}
	var classes []ClassView
	do(t, s, http.MethodGet, "/v1/classes", "", &classes)
	if len(classes) != 1 || classes[0].ShortName != "GF-Player" || classes[0].Epoch != 0 {
		t.Fatalf("classes = %+v", classes)
	}

	// Ingest the first half of the tables and check the epoch's effects.
	jv := ingestWait(t, s, tables[:lo])
	if jv.Stats == nil || jv.Stats.Epoch != 1 || jv.Stats.WrittenBack == 0 || jv.Stats.Iterations == 0 {
		t.Fatalf("ingest stats = %+v", jv.Stats)
	}
	written := jv.Stats.KBInstances - jv.Stats.WrittenBack // first written-back ID

	// Lookup: a written-back instance is served with provenance.
	var inst InstanceView
	if code := do(t, s, http.MethodGet, fmt.Sprintf("/v1/instances/%d", written), "", &inst); code != 200 {
		t.Fatalf("instance lookup = %d", code)
	}
	if inst.Provenance != kb.ProvenanceIngest || inst.IngestEpoch != 1 {
		t.Fatalf("instance = %+v", inst)
	}

	// The same lookup again must be served from the response cache.
	var st0, st1 StatsView
	do(t, s, http.MethodGet, "/v1/stats", "", &st0)
	do(t, s, http.MethodGet, fmt.Sprintf("/v1/instances/%d", written), "", nil)
	do(t, s, http.MethodGet, "/v1/stats", "", &st1)
	if st1.Cache.Hits != st0.Cache.Hits+1 {
		t.Errorf("cache hits %d -> %d, want +1", st0.Cache.Hits, st1.Cache.Hits)
	}
	if st1.Classes["dbo:GridironFootballPlayer"].Epoch != 1 {
		t.Errorf("stats classes = %+v", st1.Classes)
	}
	if h := st1.Classes["dbo:GridironFootballPlayer"].History; len(h) != 1 || h[0].Iterations != jv.Stats.Iterations {
		t.Errorf("stats history = %+v, want one epoch of %d iterations", h, jv.Stats.Iterations)
	}

	// Fuzzy search finds the written-back instance by its own label and by
	// a one-edit misspelling of it (the per-token fallback fix, exercised
	// through the serving stack).
	label := inst.Labels[0]
	var sv SearchView
	do(t, s, http.MethodGet, "/v1/search?q="+queryEscape(label), "", &sv)
	if !hitsContain(sv.Hits, inst.ID) {
		t.Fatalf("exact search for %q missed instance %d: %+v", label, inst.ID, sv.Hits)
	}
	typo := misspell(label)
	do(t, s, http.MethodGet, "/v1/search?q="+queryEscape(typo)+"&class=GF-Player", "", &sv)
	if !hitsContain(sv.Hits, inst.ID) {
		t.Errorf("fuzzy search for %q (from %q) missed instance %d: %+v", typo, label, inst.ID, sv.Hits)
	}

	// The last epoch's new entities are listed.
	var ev EntitiesView
	do(t, s, http.MethodGet, "/v1/classes/GF-Player/entities?new=1", "", &ev)
	if ev.Epoch != 1 || len(ev.Entities) == 0 {
		t.Fatalf("entities = epoch %d, %d entities", ev.Epoch, len(ev.Entities))
	}
	for _, e := range ev.Entities {
		if !e.IsNew {
			t.Fatalf("new=1 returned a non-new entity: %+v", e)
		}
	}

	// Snapshot, then restart into a regenerated world: the discoveries and
	// the epoch counter survive.
	var snap JobView
	if code := do(t, s, http.MethodPost, "/v1/snapshot?wait=1", "", &snap); code != 200 || snap.Status != statusDone {
		t.Fatalf("snapshot = %d %+v", code, snap)
	}
	if snap.Manifest == nil || snap.Manifest.Instances != jv.Stats.WrittenBack {
		t.Fatalf("snapshot manifest = %+v, want %d instances", snap.Manifest, jv.Stats.WrittenBack)
	}
	s.Close()

	s2, tables2 := newTestServer(t, dir)
	if s2.Warm == nil {
		t.Fatal("restart did not warm-start from the snapshot")
	}
	var inst2 InstanceView
	if code := do(t, s2, http.MethodGet, fmt.Sprintf("/v1/instances/%d", written), "", &inst2); code != 200 {
		t.Fatalf("warm lookup = %d", code)
	}
	if inst2.Labels[0] != label {
		t.Errorf("warm instance label %q, want %q", inst2.Labels[0], label)
	}
	do(t, s2, http.MethodGet, "/v1/classes", "", &classes)
	if classes[0].Epoch != 1 {
		t.Errorf("warm epoch = %d, want 1", classes[0].Epoch)
	}
	// A further ingest continues the epoch sequence.
	jv2 := ingestWait(t, s2, tables2[lo:])
	if jv2.Stats.Epoch != 2 {
		t.Errorf("post-restart epoch = %d, want 2", jv2.Stats.Epoch)
	}
}

func TestServeBadInput(t *testing.T) {
	s, _ := newTestServer(t, "")

	cases := []struct {
		method, target, body string
		want                 int
	}{
		{"POST", "/v1/ingest", `{bad json`, 400},
		{"POST", "/v1/ingest", `{"class":"Nope","tables":[0]}`, 400},
		{"POST", "/v1/ingest", `{"class":"Song","tables":[0]}`, 400}, // known class, not served
		{"POST", "/v1/ingest", `{"class":"GF-Player","raw":[{"headers":["only one"],"rows":[["x"]]}]}`, 400},
		{"POST", "/v1/ingest", `{"class":"GF-Player","raw":[{"headers":["a","b"],"rows":[["x"]]}]}`, 400}, // ragged
		{"POST", "/v1/ingest", `{"class":"GF-Player","raw":[{"headers":["a","b"],"rows":[["x","y"]],"labelCol":5}]}`, 400},
		{"GET", "/v1/instances/abc", "", 400},
		{"GET", "/v1/instances/999999999", "", 404},
		{"GET", "/v1/search", "", 400},
		{"GET", "/v1/search?q=x&k=0", "", 400},
		{"GET", "/v1/search?q=x&k=101", "", 400},
		{"GET", "/v1/search?q=x&class=Nope", "", 400},
		{"GET", "/v1/jobs/999", "", 404},
		{"GET", "/v1/jobs/abc", "", 400},
		{"GET", "/v1/classes/Nope/entities", "", 404},
		{"POST", "/v1/snapshot", "", 409}, // no snapshot dir configured
	}
	for _, tc := range cases {
		if code := do(t, s, tc.method, tc.target, tc.body, nil); code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.target, code, tc.want)
		}
	}

	// Unknown corpus table IDs fail the job, not the process.
	var jv JobView
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[99999]}`, &jv)
	if jv.Status != statusFailed || jv.Error == "" {
		t.Errorf("unknown-table job = %+v, want failed", jv)
	}

	// A degenerate-but-valid batch — an empty batch, then a garbage raw
	// table — must complete without taking the server down.
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[]}`, &jv)
	if jv.Status != statusDone {
		t.Errorf("empty batch = %+v, want done", jv)
	}
	garbage := `{"class":"GF-Player","raw":[{"caption":"junk",` +
		`"headers":["?!","??"],"rows":[["~~~","%%%"],["","  "]]}]}`
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", garbage, &jv)
	if jv.Status != statusDone {
		t.Errorf("garbage raw table = %+v, want done", jv)
	}
	if code := do(t, s, http.MethodGet, "/healthz", "", nil); code != 200 {
		t.Fatal("server died after degenerate batches")
	}
}

// TestServeSearchDuringIngest drives concurrent reads through every read
// endpoint while the single-writer loop runs ingest epochs. Run under
// -race (CI does), this is the regression test for the Engine accessor
// aliasing audit: handlers must never observe a later epoch's in-place
// mutation of retained state.
func TestServeSearchDuringIngest(t *testing.T) {
	s, tables := newTestServer(t, "")
	lo := len(tables) / 2

	// Epoch 1 synchronously, so reads have retained state to alias.
	ingestWait(t, s, tables[:lo])

	// Epoch 2 asynchronously while readers hammer the API.
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[lo:]})
	var jv JobView
	if code := do(t, s, http.MethodPost, "/v1/ingest", string(body), &jv); code != http.StatusAccepted {
		t.Fatalf("async ingest = %d", code)
	}

	targets := []string{
		"/v1/search?q=player&class=GF-Player",
		"/v1/search?q=plaayer", // fuzzy path
		"/v1/instances/0",
		"/v1/classes",
		"/v1/classes/GF-Player/entities",
		"/v1/classes/GF-Player/entities?new=1",
		"/v1/stats",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, target := range targets {
		wg.Add(1)
		go func(target string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, target, nil)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != 200 {
					t.Errorf("%s = %d during ingest", target, rec.Code)
					return
				}
			}
		}(target)
	}

	// Torn-view invariant: the epoch counter and the per-epoch history are
	// published in one critical section, so a reader must never see a new
	// epoch number paired with the previous epoch's history (or an
	// entities listing labeled with an epoch it doesn't belong to).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var st StatsView
			do(t, s, http.MethodGet, "/v1/stats", "", &st)
			cs := st.Classes["dbo:GridironFootballPlayer"]
			if cs.Epoch != len(cs.History) {
				t.Errorf("torn stats view: epoch %d with %d history entries", cs.Epoch, len(cs.History))
				return
			}
		}
	}()

	// Wait for the async job to finish, then stop the readers.
	for {
		var cur JobView
		do(t, s, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", jv.ID), "", &cur)
		if cur.Status == statusDone || cur.Status == statusFailed {
			if cur.Status != statusDone {
				t.Errorf("async ingest ended %+v", cur)
			}
			break
		}
	}
	close(stop)
	wg.Wait()

	var st StatsView
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if got := st.Classes["dbo:GridironFootballPlayer"].Epoch; got != 2 {
		t.Errorf("final epoch = %d, want 2", got)
	}
}

// TestServeNoOpIngestShortCircuit: a batch resolving to zero new tables
// must not reach the engine — no epoch bump, no retained-state re-fusion —
// so repeated empty requests cannot burn writer CPU for free.
func TestServeNoOpIngestShortCircuit(t *testing.T) {
	s, tables := newTestServer(t, "")

	var jv JobView
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[]}`, &jv)
	if jv.Status != statusDone || jv.Stats == nil || jv.Stats.Epoch != 0 || jv.Stats.BatchTables != 0 {
		t.Fatalf("empty batch = %+v", jv)
	}

	ingestWait(t, s, tables[:len(tables)/2])
	// Re-submitting already-ingested tables is a no-op: the epoch stays 1
	// and no history entry is appended.
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:len(tables)/2]})
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", string(body), &jv)
	if jv.Status != statusDone || jv.Stats.Epoch != 1 || jv.Stats.BatchTables != 0 {
		t.Fatalf("re-ingest = %+v", jv)
	}
	var st StatsView
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	cs := st.Classes["dbo:GridironFootballPlayer"]
	if cs.Epoch != 1 || len(cs.History) != 1 {
		t.Errorf("after no-op re-ingest: epoch %d, %d history entries", cs.Epoch, len(cs.History))
	}
}

// TestServeJobRetention: finished jobs stay queryable until the job TTL
// expires and are evicted afterwards instead of accumulating forever.
// The clock is injected so the test drives time, not the wall.
func TestServeJobRetention(t *testing.T) {
	s, _ := newTestServer(t, "")
	clock := time.Now()
	s.jobMu.Lock()
	s.now = func() time.Time { return clock }
	s.jobMu.Unlock()

	var first, last JobView
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[]}`, &first)
	// Age the first job past the TTL; the second finishes "later" and
	// must survive the sweep the listing below triggers.
	clock = clock.Add(s.jobTTL + time.Minute)
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[]}`, &last)

	var jl JobsView
	do(t, s, http.MethodGet, "/v1/jobs", "", &jl)
	if code := do(t, s, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", first.ID), "", nil); code != 404 {
		t.Errorf("expired job still retained: %d", code)
	}
	if code := do(t, s, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", last.ID), "", nil); code != 200 {
		t.Errorf("fresh job evicted: %d", code)
	}
}

// TestServeWorldKeyMismatchRefused: discoveries snapshotted against one
// deterministic world must not load onto a server built over another —
// seed counts alone cannot tell two same-sized worlds apart.
func TestServeWorldKeyMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	w, c, _ := fixture(t)
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	mk := func(worldKey string) (*Server, error) {
		return New(Config{
			KB:     w.KB,
			Corpus: c,
			Engines: map[kb.ClassID]*core.Engine{
				kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{}),
			},
			SnapshotDir: dir,
			WorldKey:    worldKey,
		})
	}
	s1, err := mk("seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if _, err := mk("seed=2"); err == nil {
		t.Fatal("world-key mismatch should refuse the warm start")
	}
	s2, err := mk("seed=1")
	if err != nil {
		t.Fatalf("matching world key refused: %v", err)
	}
	if s2.Warm == nil {
		t.Error("matching world key should warm-start")
	}
	s2.Close()
}

// TestServeStorageStatsAndAutoCompaction: /v1/stats reports the columnar
// storage footprint and the snapshot segment chain, and the snapshot job
// folds the chain back into one segment once it reaches CompactAfter.
func TestServeStorageStatsAndAutoCompaction(t *testing.T) {
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
		SnapshotDir:  dir,
		CompactAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	var st StatsView
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Storage.Instances != w.KB.NumInstances() || st.Storage.Ingested != 0 {
		t.Fatalf("cold storage stats = %+v", st.Storage)
	}
	if st.Storage.ApproxBytes <= 0 || len(st.Storage.Classes) == 0 {
		t.Fatalf("storage footprint missing: %+v", st.Storage)
	}
	if st.Storage.Segments != 0 {
		t.Fatalf("segments before any save = %d", st.Storage.Segments)
	}

	// First epoch + save: a one-segment chain, not yet compacted.
	lo := len(tables) / 2
	ingestWait(t, s, tables[:lo])
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Storage.Segments != 1 || st.Storage.LastCompaction != 0 {
		t.Fatalf("after first save: %+v", st.Storage)
	}
	if st.Storage.Ingested == 0 || st.Storage.PersistedInstances != st.Storage.Ingested {
		t.Fatalf("persisted/ingested mismatch: %+v", st.Storage)
	}

	// Second epoch + save: the delta segment pushes the chain to
	// CompactAfter, so the job compacts it back to one segment.
	ingestWait(t, s, tables[lo:])
	m, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) != 1 || m.CompactedAt == 0 {
		t.Fatalf("auto-compaction did not run: %+v", m)
	}
	do(t, s, http.MethodGet, "/v1/stats", "", &st)
	if st.Storage.Segments != 1 || st.Storage.LastCompaction != m.CompactedAt {
		t.Fatalf("after compaction: %+v", st.Storage)
	}
}

func TestServeQueueClosedAfterShutdown(t *testing.T) {
	s, tables := newTestServer(t, "")
	s.Close()
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:1]})
	var jv map[string]string
	if code := do(t, s, http.MethodPost, "/v1/ingest", string(body), &jv); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown ingest = %d, want 503", code)
	}
	// Reads still work after shutdown (the KB is intact).
	if code := do(t, s, http.MethodGet, "/healthz", "", nil); code != 200 {
		t.Error("post-shutdown health check failed")
	}
	s.Close() // idempotent
}

// ---- helpers ----

func hitsContain(hits []SearchHitView, id int) bool {
	for _, h := range hits {
		if h.ID == id {
			return true
		}
	}
	return false
}

// misspell applies one edit (drop the second letter) to the first token of
// the label that is at least four letters long, yielding a query within
// Levenshtein distance 1 of the original token.
func misspell(label string) string {
	words := strings.Fields(label)
	for i, w := range words {
		if len(w) >= 4 {
			words[i] = w[:1] + w[2:]
			break
		}
	}
	return strings.Join(words, " ")
}

func queryEscape(s string) string {
	return strings.ReplaceAll(s, " ", "+")
}
