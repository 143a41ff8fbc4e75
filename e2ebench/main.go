// Command e2ebench is the end-to-end benchmark of the ltee serving stack:
// it builds the server exactly as cmd/ltee-serve does (report.NewSuite →
// TablesByClass → one untrained core.NewEngine per evaluation class →
// serve.New with a journaled snapshot directory and default cache, queue
// and compaction settings), serves it on a real loopback listener, and
// drives it over HTTP from the same process. BENCHMARK.json at the
// repository root declares its workloads and metrics.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh builds this package into .bench_build and runs it. The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. An unknown workload exits 2; a failed correctness
// check prints the result with "correct": false and exits 1.
//
// # Inputs and rounds
//
// The seed is the only input. A run takes the workload's K sub-worlds,
// seeds K·seed .. K·seed+K-1, each a world at scale 0.25 with a corpus at
// scale 0.125 (about 100 tables in three classes). One round generates a
// sub-world (untimed), sets up a fresh server over it, runs the workload's
// ingest and read phases, checks the outputs and tears the server down.
// Every metric is computed per round and averaged over the K rounds;
// setup_s is their median.
//
// Many small worlds keep the inputs' share of the spread across seeds
// small: one world's ingest throughput and F1 vary from seed to seed with
// a standard deviation of 15 to 18%, and the mean of 24 or 40 worlds by
// about 3%. What remains is the host: on a shared two-vCPU VM the speed of
// a fixed CPU loop drifts by 20 to 30% over minutes, and a run of about
// 40 s only averages part of that out.
//
// # Workloads
//
// Each workload sits on one side of the two mechanisms a change is most
// likely to move: per-epoch work over retained state (one job per class
// against many small ones) and the response cache (a stable KB against
// write-backs that void it). Each round ingests every classified table and
// finishes with a snapshot.
//
//   - read_zipf (K = 24): one "auto: all" job per class. Clustering
//     kernels dominate and the engines start empty, so a fix to per-epoch
//     overhead should predict no change here. Then closed-loop reads over
//     two connections, --seconds in all: 80% /v1/instances/{id}, 20%
//     /v1/search, both Zipf(1.1)-skewed, the searches drawn from a pool of
//     4096 one-letter-typo labels. The KB is stable, so the response cache
//     serves most reads: this measures read capacity.
//   - mixed (K = 40): "auto: 4" jobs, one in flight per class, a snapshot
//     after every 12th epoch, and one open-loop reader at 500 req/s beside
//     them. Half the reads are unique typo searches, half look up the 256
//     newest instances. Per-epoch work over retained state, scheduler
//     lanes, journal fsyncs and segment compaction dominate the ingest;
//     write-backs keep voiding the cache, so reads take the miss path and
//     wait behind epochs. This shows how ingest and reads interfere in both
//     directions. Its 40 ingests, not --seconds, set its length: about
//     40 s on two cores.
//
// All client traffic comes from at most two goroutines sharing one
// http.Transport with MaxConnsPerHost = 2. The ingester submits jobs
// and polls GET /v1/jobs?status=queued,running every 2 ms; a job's latency
// runs from its POST to the poll that first sees it finished.
//
// # End-to-end metrics (--trace 0)
//
//	name                 unit      better  definition
//	setup_s              s         lower   classification, engines, serve.New, listener up
//	ingest_tables_per_s  tables/s  higher  tables ingested / time from first POST to final snapshot done
//	ingest_job_ms_p90    ms        lower   p90 of ingest job latency (no p50: per-class epochs are bimodal)
//	new_entity_f1        ratio     higher  §4.1 new-instances-found F1 of each engine's Last(), mean of the classes
//	read_rps             req/s     higher  reads answered / read-phase time
//	lookup_us_p50        us        lower   client latency of GET /v1/instances/{id}
//	lookup_us_p90        us        lower
//	search_us_p50        us        lower   client latency of GET /v1/search
//	search_us_p90        us        lower
//	read_slo_frac        ratio     higher  share of attempted reads answered 200 within 10 ms
//	live_heap_mb         MB        lower   HeapAlloc after runtime.GC() at the end of the round
//
// On mixed, read_rps is the offered 500 req/s unless the server falls
// behind. A detection matched to an instance an earlier epoch wrote back
// (kb.ProvenanceIngest) counts as new for the F1. Failed operations —
// non-2xx answers, 429s and transport errors — are the JSON's "failed"
// count against "attempted"; a run with any is not correct.
//
// Open-loop latency (mixed) counts from the due time only when the previous
// request was still in flight at the due time, and otherwise from the
// actual send: time.Sleep overshoots by about half a millisecond on small
// VMs, and charging that to reads that take tens of microseconds would
// measure the generator, not the server.
//
// # Per-layer metrics (--trace 1)
//
// A traced run runs the first half of the sub-worlds untraced, then the
// same half again with a chained core.Config.Progress hook, a timing
// wrapper around the server's handler, /v1/stats scrapes around each read
// phase, and direct kb calls on a sample of the round's own requests, so
// it takes as long as an untraced run. Spans (job → queue wait → one span
// per stage, with the stage event's Count) are kept in memory and written
// as JSON lines to a file in the --spans directory at the end.
//
//	layer metric                          should move                          on
//	core.stage.{match,build,cluster,      ingest_tables_per_s                  read_zipf (cluster, build), mixed (all)
//	  fuse,detect,writeback}_s
//	core.stage.*_units,                   ingest_tables_per_s,                 mixed; read_zipf as the no-change control
//	  core.detect_units_per_row             ingest_job_ms_p90
//	core.epoch_ms_{p50,p90}               ingest_job_ms_p90                    mixed
//	serve.enqueue_ms_p50,                 ingest_job_ms_p90                    mixed
//	  serve.queue_wait_ms_{p50,p90},
//	  serve.snapshot_ms_p50
//	serve.cache_hit_ratio.{search,        read_rps, *_us_p50                   read_zipf
//	  instances}, serve.handler_us_{p50,
//	  p99}.{lookup,search},
//	  http.overhead_us_p50
//	kb.search_us_p50, kb.instance_us_p50  search_us_p50, lookup_us_p50         mixed (miss path)
//	kb.snapshot_bytes_per_save,           ingest_job_ms_p90                    mixed
//	  kb.segments
//	go.gc_cycles, go.gc_pause_ms,         read_slo_frac, *_us_p50,             mixed
//	  go.gc_cpu_frac                        live_heap_mb
//	loadgen.sleep_overshoot_us_p50        validity only                        mixed
//	trace.overhead_frac                   validity only                        both
//
// serve.enqueue_ms is the ingest POST's 202 round trip, journal fsync
// included; serve.queue_wait_ms runs from the POST to the job's first
// stage event. A stage span ends where the class's next stage event
// starts; the last stage of an epoch (writeback) ends when the ingester sees
// the job finished, so it includes the job's commit and up to one poll
// interval. trace.overhead_frac is the traced pass's slowdown of the
// workload's throughput (read_rps on read_zipf, ingest_tables_per_s on
// mixed).
//
// # Bounds
//
// Across ten seeds on a two-vCPU VM, the quartile spread (IQR over
// median) of every timing and throughput metric is 0.06 to 0.21, nearly
// all of it the host's drift: every timing metric moves with setup_s and
// with the speed of a fixed CPU loop. Those metrics take the largest bound
// allowed, 0.25, as do setup_s (about 10 ms) and new_entity_f1, whose
// spread of 0.05 to 0.06 is the inputs' alone: a seed's F1 repeats
// exactly. live_heap_mb (spread at most 0.02) and read_slo_frac (at most
// 0.012) are bounded at 0.10.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Every sub-world is a world of these scales.
const (
	worldScale  = 0.25
	corpusScale = 0.125
)

// workload names one traffic mix. A bulk workload ingests one job per
// class and then reads the stable KB closed loop; a trickle workload
// ingests "auto: 4" jobs with periodic snapshots while an open-loop reader
// runs beside it.
type workload struct {
	name      string
	subWorlds int // worlds per run, sized so a run takes about 40 s
	trickle   bool
}

var workloads = []workload{
	{name: "read_zipf", subWorlds: 24},
	{name: "mixed", subWorlds: 40, trickle: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one benchmark invocation. Tests shrink the scales; the command
// line always uses the package constants.
type config struct {
	workload    workload
	seed        int64
	seconds     time.Duration
	trace       bool
	spans       string // directory for a traced run's span file ("" = none)
	subWorlds   int
	worldScale  float64
	corpusScale float64
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: read_zipf or mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "read_zipf's read time in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from an extra traced pass")
	spans := fs.String("spans", "", "directory for the traced pass's span file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		fs.Usage()
		return 2
	}
	cfg := config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, spans: *spans,
		subWorlds: w.subWorlds, worldScale: worldScale, corpusScale: corpusScale,
	}
	res, err := run(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	body, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", body)
	if !res.Correct {
		return 1
	}
	return 0
}

// run measures one workload: an untraced pass for the end-to-end metrics,
// and with cfg.trace a second, traced pass for the per-layer ones. Failed
// checks are printed to problems and make the result incorrect.
func run(ctx context.Context, cfg config, problems io.Writer) (*result, error) {
	base, err := os.MkdirTemp("", "e2ebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// A traced run's two passes each take the first half of the
	// sub-worlds, so it takes as long as an untraced run.
	n := cfg.subWorlds
	if cfg.trace {
		n = max(cfg.subWorlds/2, 1)
	}
	plain, err := runPass(ctx, cfg, base, nil, n)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted, Failed: plain.failed}
	checks := plain.problems
	if !cfg.trace {
		res.Metrics = endToEnd(plain)
	} else {
		overshoot := calibrateSleep()
		tr := &tracer{}
		traced, err := runPass(ctx, cfg, base, tr, n)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		checks = append(checks, traced.problems...)
		for k, r := range traced.rounds {
			if a, b := plain.rounds[k].f1, r.f1; a != b {
				checks = append(checks, fmt.Sprintf("sub-world %d: new_entity_f1 %v untraced, %v traced", k, a, b))
			}
		}
		res.Metrics = perLayer(cfg.workload, plain, traced, tr, overshoot)
		if cfg.spans != "" {
			name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed)
			if err := tr.writeSpans(filepath.Join(cfg.spans, name)); err != nil {
				return nil, err
			}
		}
	}
	for _, p := range checks {
		fmt.Fprintf(problems, "check failed: %s\n", p)
	}
	res.Correct = len(checks) == 0 && res.Failed == 0
	return res, nil
}

// runPass runs one round on each of the first n sub-worlds.
func runPass(ctx context.Context, cfg config, base string, tr *tracer, n int) (*pass, error) {
	p := &pass{}
	if tr != nil {
		tr.begin()
	}
	for k := range n {
		r, err := runRound(ctx, cfg, base, cfg.seed*int64(cfg.subWorlds)+int64(k), tr)
		if err != nil {
			return nil, fmt.Errorf("sub-world %d: %w", k, err)
		}
		p.add(r)
	}
	if tr != nil {
		tr.end()
	}
	return p, nil
}
