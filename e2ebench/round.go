package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/kb"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/webtable"
)

// pollEvery is the ingester's job-status poll period: fine enough to
// resolve epochs of tens of milliseconds, coarse enough that polling costs
// the server a few percent of one core.
const pollEvery = 2 * time.Millisecond

// Trickle shape: tables per job, and completed epochs between snapshots.
const (
	trickleAuto   = 4
	snapshotEvery = 12
)

// round is what one sub-world contributed to a pass.
type round struct {
	setup      time.Duration
	tables     int
	ingestWall time.Duration
	jobLat     []time.Duration // ingest jobs, POST to seen done
	f1         float64
	values     []float64 // e2eMetrics, in order
	heapMB     float64
	reads      *readStats
	attempted  int
	failed     int
	problems   []string
}

// pass aggregates the rounds of one pass, one per sub-world.
type pass struct {
	rounds    []*round
	attempted int
	failed    int
	problems  []string
}

func (p *pass) add(r *round) {
	p.rounds = append(p.rounds, r)
	p.attempted += r.attempted
	p.failed += r.failed
	p.problems = append(p.problems, r.problems...)
}

// runRound generates one sub-world, sets up a server over it, runs the
// workload's phases against it, checks the outputs and tears it down.
func runRound(ctx context.Context, cfg config, base string, seed int64, tr *tracer) (*round, error) {
	suite := report.NewSuite(report.Options{WorldScale: cfg.worldScale, CorpusScale: cfg.corpusScale, Seed: seed})
	dir, err := os.MkdirTemp(base, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tround *traceRound
	if tr != nil {
		tround = tr.newRound(dir)
	}

	start := time.Now()
	tables, err := suite.TablesByClass(ctx)
	if err != nil {
		return nil, err
	}
	engines := make(map[kb.ClassID]*core.Engine, len(kb.EvalClasses()))
	for _, class := range kb.EvalClasses() {
		eng := core.NewEngine(suite.Config(class), core.Models{})
		if tround != nil {
			eng.Cfg.Progress = tround.progress
		}
		engines[class] = eng
	}
	srv, err := serve.New(serve.Config{
		KB:          suite.World.KB,
		Corpus:      suite.Corpus,
		Engines:     engines,
		Tables:      tables,
		SnapshotDir: dir,
		WorldKey:    fmt.Sprintf("world=%g corpus=%g seed=%d", cfg.worldScale, cfg.corpusScale, seed),
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(tround.wrap(srv.Handler()))
	defer ts.Close()
	r := &round{setup: time.Since(start)}

	c := newClient(ts.URL)
	defer c.close()
	kbBefore := suite.World.KB.NumInstances()
	in := &ingester{c: c, tables: tables, trickle: cfg.workload.trickle, trace: tround}
	in.kbSize.Store(int64(kbBefore))
	gen := newReadGen(seed, suite, c)

	// Trickle: the open-loop reader runs beside the ingester.
	var ol *openLoop
	if cfg.workload.trickle {
		tround.scrape(c)
		ol = startOpenLoop(gen, &in.kbSize, kbBefore)
	}
	err = in.run(ctx)
	if ol != nil {
		r.reads = ol.stop()
	}
	if err != nil {
		return nil, err
	}
	r.ingestWall = in.wall
	r.jobLat = in.jobLatencies()
	r.attempted, r.failed = in.attempted, in.failed
	r.problems = in.check(suite.World.KB, kbBefore)

	// Bulk: closed-loop reads of the stable KB, --seconds shared out over
	// the sub-worlds.
	if !cfg.workload.trickle {
		tround.scrape(c)
		r.reads = zipfReads(gen, int(in.kbSize.Load()), cfg.seconds/time.Duration(cfg.subWorlds))
	}
	tround.scrape(c)
	tround.direct(ctx, suite.World.KB, r.reads)
	r.attempted += r.reads.attempted
	r.failed += r.reads.failed
	r.problems = append(r.problems, r.reads.problems...)

	for _, class := range kb.EvalClasses() {
		r.tables += len(tables[class])
	}
	r.f1 = newEntityF1(suite, engines)
	r.values = make([]float64, len(e2eMetrics))
	for i, m := range e2eMetrics {
		r.values[i] = m.of(r)
	}
	if tround == nil {
		// The pass keeps its rounds; their latencies would count toward
		// the live heap of every later round.
		r.reads.lat = [2][]time.Duration{}
	}
	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	r.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	tround.finish(in.jobs)
	return r, nil
}

// newEntityF1 is the §4.1 new-instances-found F1 of each engine's last
// output against the suite's gold standard, averaged over the classes. A
// detection matched to an instance that an earlier epoch wrote back is a
// discovery of this run, so it counts as new.
func newEntityF1(suite *report.Suite, engines map[kb.ClassID]*core.Engine) float64 {
	sum := 0.0
	for _, class := range kb.EvalClasses() {
		out := engines[class].Last()
		if out == nil {
			continue
		}
		produced := make([]eval.NewEntityResult, len(out.Entities))
		for i, ent := range out.Entities {
			det := out.Detections[i]
			if det.Matched {
				if prov, _ := suite.World.KB.InstanceProvenance(det.Instance); prov == kb.ProvenanceIngest {
					det.IsNew = true
				}
			}
			refs := make([]webtable.RowRef, len(ent.Rows))
			for j, row := range ent.Rows {
				refs[j] = row.Ref
			}
			produced[i] = eval.NewEntityResult{Rows: refs, Result: det}
		}
		sum += eval.EvaluateNewInstancesFound(suite.Golds[class], produced).F1
	}
	return sum / float64(len(kb.EvalClasses()))
}

// jobRec is one job the ingester submitted and watched to completion.
type jobRec struct {
	kind     string // "ingest" or "snapshot"
	class    kb.ClassID
	sent     time.Time // POST sent
	accepted time.Time // 202 received
	done     time.Time // first poll that saw it finished
	view     serve.JobView
}

// ingester drives one round's ingest phase from a single goroutine:
// per-class job submission, snapshots, and completion polling.
type ingester struct {
	c       *client
	tables  map[kb.ClassID][]int
	trickle bool
	trace   *traceRound

	// kbSize is the largest KB instance count a finished job reported;
	// the mixed workload's reader targets the newest instances below it.
	kbSize atomic.Int64

	jobs      []*jobRec
	wall      time.Duration
	attempted int
	failed    int
}

// run ingests every classified table and ends with a snapshot: in bulk one
// job per class, in trickle "auto: 4" jobs with one in flight per class and
// a snapshot after every 12th finished epoch.
func (in *ingester) run(ctx context.Context) error {
	left := make(map[kb.ClassID]int, len(in.tables))
	inflight := make(map[int64]*jobRec)
	submitIngest := func(class kb.ClassID) error {
		n := left[class]
		if in.trickle {
			n = min(n, trickleAuto)
		}
		left[class] -= n
		j, err := in.submit("/v1/ingest", serve.IngestRequest{Class: string(class), Auto: n}, "ingest", class)
		if err == nil {
			inflight[j.view.ID] = j
		}
		return err
	}
	submitSnapshot := func() error {
		j, err := in.submit("/v1/snapshot", serve.SnapshotRequest{}, "snapshot", "")
		if err == nil {
			inflight[j.view.ID] = j
		}
		return err
	}

	start := time.Now()
	for _, class := range kb.EvalClasses() {
		left[class] = len(in.tables[class])
		if left[class] > 0 {
			if err := submitIngest(class); err != nil {
				return err
			}
		}
	}
	epochs, final := 0, false
	for {
		if len(inflight) == 0 {
			if final {
				break
			}
			// Every ingest has finished: persist the discoveries.
			if err := submitSnapshot(); err != nil {
				return err
			}
			final = true
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(pollEvery)
		var live serve.JobsView
		if code, err := in.c.getJSON("/v1/jobs?status=queued,running", &live); err != nil || code != http.StatusOK {
			return fmt.Errorf("poll jobs: status %d, %v", code, err)
		}
		seen := time.Now()
		running := make(map[int64]bool, len(live.Jobs))
		for _, v := range live.Jobs {
			running[v.ID] = true
		}
		ids := make([]int64, 0, len(inflight))
		for id := range inflight {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if running[id] {
				continue
			}
			j := inflight[id]
			delete(inflight, id)
			j.done = seen
			if code, err := in.c.getJSON(fmt.Sprintf("/v1/jobs/%d", id), &j.view); err != nil || code != http.StatusOK {
				return fmt.Errorf("job %d: status %d, %v", id, code, err)
			}
			if j.kind == "snapshot" {
				in.trace.snapshotSaved()
				continue
			}
			if st := j.view.Stats; st != nil && int64(st.KBInstances) > in.kbSize.Load() {
				in.kbSize.Store(int64(st.KBInstances))
			}
			if left[j.class] > 0 {
				if err := submitIngest(j.class); err != nil {
					return err
				}
			}
			epochs++
			if in.trickle && epochs%snapshotEvery == 0 {
				if err := submitSnapshot(); err != nil {
					return err
				}
			}
		}
	}
	in.wall = time.Since(start)
	return nil
}

// submit POSTs one job and records it; anything but 202 fails the round.
func (in *ingester) submit(path string, body any, kind string, class kb.ClassID) (*jobRec, error) {
	j := &jobRec{kind: kind, class: class, sent: time.Now()}
	in.attempted++
	code, err := in.c.postJSON(path, body, &j.view)
	j.accepted = time.Now()
	if err != nil || code != http.StatusAccepted {
		in.failed++
		return nil, fmt.Errorf("POST %s: status %d, %v", path, code, err)
	}
	in.jobs = append(in.jobs, j)
	return j, nil
}

func (in *ingester) jobLatencies() []time.Duration {
	var out []time.Duration
	for _, j := range in.jobs {
		if j.kind == "ingest" {
			out = append(out, j.done.Sub(j.sent))
		}
	}
	return out
}

// check verifies the ingest phase's outcome: every job done, every class's
// classified tables ingested, and the KB grown by exactly the reported
// write-backs.
func (in *ingester) check(k *kb.KB, kbBefore int) []string {
	var problems []string
	total := make(map[kb.ClassID]int)
	written := 0
	for _, j := range in.jobs {
		if j.view.Status != "done" || j.view.Error != "" {
			problems = append(problems, fmt.Sprintf("%s job %d ended %q: %s", j.kind, j.view.ID, j.view.Status, j.view.Error))
			continue
		}
		if j.kind == "ingest" && j.view.Stats != nil {
			total[j.class] = j.view.Stats.TotalTables
			written += j.view.Stats.WrittenBack
		}
	}
	for _, class := range kb.EvalClasses() {
		if got, want := total[class], len(in.tables[class]); got != want {
			problems = append(problems, fmt.Sprintf("%s ingested %d tables, %d classified", class, got, want))
		}
	}
	if grown := k.NumInstances() - kbBefore; grown != written {
		problems = append(problems, fmt.Sprintf("KB grew by %d instances, jobs wrote back %d", grown, written))
	}
	return problems
}
