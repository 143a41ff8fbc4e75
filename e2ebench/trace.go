package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/serve"
)

// tracer observes the traced pass from outside the program: the engines'
// progress events, the server's handler time, /v1/stats, the snapshot
// directory, direct kb calls and the Go runtime.
type tracer struct {
	start    time.Time
	gc0, gc1 gcSample
	rounds   []*traceRound
	spans    []span
}

func (t *tracer) begin() {
	t.start = time.Now()
	t.gc0 = readGC()
}

func (t *tracer) end() { t.gc1 = readGC() }

// span is one timed interval of the span file. Times are microseconds
// since the traced pass began.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	Epoch   int    `json:"epoch,omitempty"`
	Iter    int    `json:"iteration,omitempty"`
	Count   int    `json:"count,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// traceRound collects one round's observations. Its methods other than
// progress do nothing on a nil *traceRound, the untraced pass.
type traceRound struct {
	t   *tracer
	idx int
	dir string // snapshot directory

	mu      sync.Mutex // guards events and handler: writer lanes and handlers run concurrently
	events  []stageEvent
	handler [2][]time.Duration

	hits, misses [2]uint64 // response cache, over the scraped read windows
	scraped      *serve.StatsView
	segments     int
	snapBytes    []int64
	kbSearch     []time.Duration
	kbInstance   []time.Duration
	jobs         []*jobRec
}

type stageEvent struct {
	at time.Time
	ev core.Event
}

func (t *tracer) newRound(dir string) *traceRound {
	r := &traceRound{t: t, idx: len(t.rounds), dir: dir}
	t.rounds = append(t.rounds, r)
	return r
}

// progress is the engines' chained core.Config.Progress hook.
func (r *traceRound) progress(ev core.Event) {
	at := time.Now()
	r.mu.Lock()
	r.events = append(r.events, stageEvent{at: at, ev: ev})
	r.mu.Unlock()
}

// wrap times the server's handler for the read endpoints.
func (r *traceRound) wrap(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		kind := readKind(-1)
		switch {
		case strings.HasPrefix(req.URL.Path, "/v1/instances/"):
			kind = lookup
		case req.URL.Path == "/v1/search":
			kind = search
		}
		if kind >= 0 {
			r.mu.Lock()
			r.handler[kind] = append(r.handler[kind], d)
			r.mu.Unlock()
		}
	})
}

// scrape reads /v1/stats. Scrapes come in pairs around a read window; the
// second of a pair adds the window's response-cache deltas.
func (r *traceRound) scrape(c *client) {
	if r == nil {
		return
	}
	var v serve.StatsView
	if code, err := c.getJSON("/v1/stats", &v); err != nil || code != http.StatusOK {
		return
	}
	r.segments = v.Storage.Segments
	if r.scraped == nil {
		r.scraped = &v
		return
	}
	for kind, path := range []string{"instances", "search"} {
		now, was := v.Cache.ByPath[path], r.scraped.Cache.ByPath[path]
		r.hits[kind] += now.Hits - was.Hits
		r.misses[kind] += now.Misses - was.Misses
	}
	r.scraped = nil
}

// snapshotSaved records the size of the segment the latest save wrote.
func (r *traceRound) snapshotSaved() {
	if r == nil {
		return
	}
	m, err := kb.ReadManifest(r.dir)
	if err != nil || len(m.Segments) == 0 {
		return
	}
	if fi, err := os.Stat(filepath.Join(r.dir, m.Segments[len(m.Segments)-1].File)); err == nil {
		r.snapBytes = append(r.snapBytes, fi.Size())
	}
}

// direct times the KB itself on a sample of the round's own requests.
func (r *traceRound) direct(ctx context.Context, k *kb.KB, reads *readStats) {
	if r == nil {
		return
	}
	for _, q := range reads.queries {
		start := time.Now()
		if _, err := k.SearchInstances(ctx, q, kb.CandidateOpts{K: 10}); err == nil {
			r.kbSearch = append(r.kbSearch, time.Since(start))
		}
	}
	for _, id := range reads.ids {
		start := time.Now()
		k.Instance(kb.InstanceID(id))
		r.kbInstance = append(r.kbInstance, time.Since(start))
	}
}

// finish turns the round's jobs and stage events into spans. Each class
// runs one epoch at a time, so an event belongs to the job of its class
// whose stats name its epoch. A job's queue wait runs from its POST to its
// first stage event, which can precede the 202's arrival at the client. A
// stage ends where the class's next event starts; the epoch's last stage
// ends when the ingester saw the job done.
func (r *traceRound) finish(jobs []*jobRec) {
	if r == nil {
		return
	}
	r.jobs = jobs
	t := r.t
	us := func(at time.Time) int64 { return at.Sub(t.start).Microseconds() }
	add := func(s span) int {
		s.ID = len(t.spans) + 1
		s.Round = r.idx
		t.spans = append(t.spans, s)
		return s.ID
	}
	type key struct {
		class kb.ClassID
		epoch int
	}
	jobOf := make(map[key]*jobRec)
	parent := make(map[*jobRec]int)
	for _, j := range jobs {
		name := "job." + j.kind
		epoch := 0
		if j.view.Stats != nil && j.kind == "ingest" {
			epoch = j.view.Stats.Epoch
			jobOf[key{j.class, epoch}] = j
		}
		parent[j] = add(span{Name: name, Class: string(j.class), Epoch: epoch, StartUS: us(j.sent), EndUS: us(j.done)})
	}
	r.mu.Lock()
	events := append([]stageEvent(nil), r.events...)
	r.mu.Unlock()
	started := make(map[*jobRec]bool)
	for i, e := range events {
		j := jobOf[key{e.ev.Class, e.ev.Epoch}]
		if j == nil {
			continue
		}
		if !started[j] {
			started[j] = true
			add(span{Parent: parent[j], Name: "queue_wait", Class: string(j.class), Epoch: e.ev.Epoch,
				StartUS: us(j.sent), EndUS: us(e.at)})
		}
		end := j.done
		for _, next := range events[i+1:] {
			if next.ev.Class == e.ev.Class {
				if next.ev.Epoch == e.ev.Epoch {
					end = next.at
				}
				break
			}
		}
		add(span{Parent: parent[j], Name: "stage." + string(e.ev.Stage), Class: string(j.class),
			Epoch: e.ev.Epoch, Iter: e.ev.Iteration, Count: e.ev.Count, StartUS: us(e.at), EndUS: us(end)})
	}
}

// gcSample is a reading of the runtime's GC counters.
type gcSample struct {
	cycles   uint32
	pause    time.Duration
	gcCPU    float64
	totalCPU float64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return gcSample{
		cycles:   ms.NumGC,
		pause:    time.Duration(ms.PauseTotalNs),
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
	}
}
