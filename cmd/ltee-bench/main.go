// Command ltee-bench runs the repo's tracked hot-path benchmarks in
// process (via testing.Benchmark) and emits machine-readable
// BENCH_hotpath.json — ns/op, B/op and allocs/op per benchmark — so the
// repo carries a perf trajectory and CI can hold every PR to it.
//
// Usage:
//
//	ltee-bench                             # full run, writes BENCH_hotpath.json
//	ltee-bench -short                      # CI smoke: tiny benchtime
//	ltee-bench -baseline bench_baseline.json
//	                                       # gate allocs/op and extras against
//	                                       # the committed baseline; exit 1 on
//	                                       # regression
//	ltee-bench -run 'ServeSearch' -out -   # subset, JSON to stdout
//	ltee-bench -scale                      # corpus-scale benches + 2x gate
//	ltee-bench -best 5                     # keep the best of 5 runs
//
// Every benchmark runs -best times (default 3) and records the per-metric
// minimum: the minimum is the run least disturbed by scheduler and GC
// noise, which is what makes ns/op trends and the -scale ratio gate
// comparable across runs.
//
// With -scale, the corpus-scale benchmarks (internal/bench.Scale) run too,
// and the run fails unless per-epoch ingest cost stays near-flat under
// corpus growth: IngestScale/10x must cost at most twice IngestScale/1x —
// the headline sub-linear-candidate-generation claim of the LSH blocking
// layer, gated rather than assumed.
//
// Unlike the other binaries, ltee-bench deliberately imports
// internal/bench — the repo's tracked benchmark corpus is internal
// tooling, not public API.
//
// The -baseline file is simply a previous output file; the gate's
// baseline is the committed bench_baseline.json, whose names equal the
// registry's. Any tracked benchmark present in both runs whose allocs/op,
// or any extra metric (b.ReportMetric), exceeds the baseline by more than
// -slack (default 25%) fails the run. allocs/op is the compared metric
// because it is stable across machines; ns/op is recorded for
// trend-reading, not gating.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/bench"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra carries custom benchmark metrics (b.ReportMetric), e.g. the
	// storage benches' kb-bytes/inst and written-bytes/op. Every extra
	// metric is lower-is-better and gated against the baseline exactly
	// like allocs/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_hotpath.json document.
type Report struct {
	GeneratedBy string   `json:"generated_by"`
	BenchTime   string   `json:"benchtime"`
	Benchmarks  []Result `json:"benchmarks"`
	// Baseline echoes the compared baseline results (when -baseline was
	// given), so one file records before and after side by side.
	Baseline []Result `json:"baseline,omitempty"`
	// Regressions lists benchmarks whose allocs/op regressed beyond the
	// slack; non-empty means the run failed.
	Regressions []string `json:"regressions,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ltee-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "BENCH_hotpath.json", "output file (- for stdout)")
	baselineFile := fs.String("baseline", "", "previous BENCH_hotpath.json to gate allocs/op against")
	benchtime := fs.String("benchtime", "", "testing benchtime (e.g. 1s, 100x); default 1s, or 20ms with -short")
	short := fs.Bool("short", false, "smoke mode: minimal benchtime for CI")
	slack := fs.Float64("slack", 0.25, "allowed fractional allocs/op increase over the baseline")
	runPat := fs.String("run", "", "only run benchmarks matching this regexp")
	best := fs.Int("best", 3, "runs per benchmark; the per-metric minimum is kept")
	scale := fs.Bool("scale", false, "also run the corpus-scale benchmarks and gate IngestScale/10x <= 2x IngestScale/1x")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *best < 1 {
		fmt.Fprintf(stderr, "-best must be >= 1 (got %d)\n", *best)
		fs.Usage()
		return 2
	}
	if *slack < 0 {
		fmt.Fprintf(stderr, "-slack must be >= 0 (a fractional allowance; got %g)\n", *slack)
		fs.Usage()
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "-out must name a file (or - for stdout)")
		fs.Usage()
		return 2
	}

	bt := *benchtime
	if bt == "" {
		bt = "1s"
		if *short {
			bt = "20ms"
		}
	}
	// Register the testing flags (test.benchtime drives
	// testing.Benchmark); in a test binary they already exist.
	if flag.Lookup("test.benchtime") == nil {
		testing.Init()
	}
	if err := flag.Set("test.benchtime", bt); err != nil {
		fmt.Fprintf(stderr, "bad -benchtime %q: %v\n", bt, err)
		return 2
	}

	var filter *regexp.Regexp
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(stderr, "bad -run pattern: %v\n", err)
			return 2
		}
		filter = re
	}

	report := Report{GeneratedBy: "ltee-bench", BenchTime: bt}
	all := bench.All()
	if *scale {
		all = append(all, bench.Scale()...)
	}
	for _, nb := range all {
		if filter != nil && !filter.MatchString(nb.Name) {
			continue
		}
		fmt.Fprintf(stderr, "running %-22s ", nb.Name)
		res := bestOf(nb, *best)
		fmt.Fprintf(stderr, "%12.0f ns/op %12d B/op %10d allocs/op%s\n",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, extraSummary(res.Extra))
		report.Benchmarks = append(report.Benchmarks, res)
	}
	if len(report.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "no benchmarks matched")
		return 2
	}

	if *baselineFile != "" {
		base, err := loadReport(*baselineFile)
		if err != nil {
			fmt.Fprintf(stderr, "baseline: %v\n", err)
			return 2
		}
		report.Baseline = base.Benchmarks
		report.Regressions = regressions(report.Benchmarks, base.Benchmarks, *slack)
	}
	if *scale {
		report.Regressions = append(report.Regressions, scaleGate(report.Benchmarks)...)
	}

	body, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "marshal: %v\n", err)
		return 1
	}
	body = append(body, '\n')
	if *out == "-" {
		stdout.Write(body)
	} else if err := os.WriteFile(*out, body, 0o644); err != nil {
		fmt.Fprintf(stderr, "write %s: %v\n", *out, err)
		return 1
	}

	if len(report.Regressions) > 0 {
		for _, r := range report.Regressions {
			fmt.Fprintf(stderr, "REGRESSION: %s\n", r)
		}
		return 1
	}
	return 0
}

// bestOf runs the benchmark n times and keeps each metric's minimum —
// the measurement least disturbed by scheduler and GC noise.
func bestOf(nb bench.Named, n int) Result {
	var best Result
	for i := 0; i < n; i++ {
		r := testing.Benchmark(nb.Fn)
		res := Result{
			Name:        nb.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		if i == 0 {
			best = res
			continue
		}
		best.Iterations += res.Iterations
		best.NsPerOp = math.Min(best.NsPerOp, res.NsPerOp)
		best.BytesPerOp = min(best.BytesPerOp, res.BytesPerOp)
		best.AllocsPerOp = min(best.AllocsPerOp, res.AllocsPerOp)
		for k, v := range res.Extra {
			if prev, ok := best.Extra[k]; !ok || v < prev {
				if best.Extra == nil {
					best.Extra = make(map[string]float64, len(res.Extra))
				}
				best.Extra[k] = v
			}
		}
	}
	return best
}

// extraSummary renders a benchmark's custom metrics for the progress
// line, keys sorted for stable output.
func extraSummary(extra map[string]float64) string {
	if len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var s string
	for _, k := range keys {
		s += fmt.Sprintf(" %12.1f %s", extra[k], k)
	}
	return s
}

// scaleGate holds the corpus-scale claim: the per-epoch ingest cost at 10x
// label scale must stay within 2x of the 1x cost. A ratio, not an absolute
// time, so the gate is comparable across machines.
func scaleGate(cur []Result) []string {
	var one, ten *Result
	for i := range cur {
		switch cur[i].Name {
		case "IngestScale/1x":
			one = &cur[i]
		case "IngestScale/10x":
			ten = &cur[i]
		}
	}
	if one == nil || ten == nil || one.NsPerOp <= 0 {
		return []string{"scale gate: IngestScale/1x and IngestScale/10x must both run (use -scale without -run filters)"}
	}
	if ratio := ten.NsPerOp / one.NsPerOp; ratio > 2 {
		return []string{fmt.Sprintf("scale gate: IngestScale/10x is %.2fx IngestScale/1x (limit 2x) — per-epoch cost is growing with the label corpus", ratio)}
	}
	return nil
}

// loadReport reads a previous output file for baseline comparison.
func loadReport(path string) (*Report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// regressions compares allocs/op per benchmark against the baseline,
// returning a message per benchmark exceeding baseline·(1+slack).
// Benchmarks missing on either side are skipped (new benchmarks are not
// regressions; removed ones are caught in review).
func regressions(cur, base []Result, slack float64) []string {
	baseBy := make(map[string]Result, len(base))
	for _, r := range base {
		baseBy[r.Name] = r
	}
	var out []string
	for _, r := range cur {
		b, ok := baseBy[r.Name]
		if !ok {
			continue
		}
		limit := float64(b.AllocsPerOp) * (1 + slack)
		if float64(r.AllocsPerOp) > limit {
			out = append(out, fmt.Sprintf("%s: %d allocs/op > baseline %d (+%.0f%% slack)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp, slack*100))
		}
		// Extra metrics (kb-bytes/inst, written-bytes/op, ...) are all
		// lower-is-better and gate with the same slack; metrics present on
		// only one side are skipped like whole benchmarks are.
		keys := make([]string, 0, len(b.Extra))
		for k := range b.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := b.Extra[k]
			cv, ok := r.Extra[k]
			if !ok {
				continue
			}
			if cv > bv*(1+slack) {
				out = append(out, fmt.Sprintf("%s: %.1f %s > baseline %.1f (+%.0f%% slack)",
					r.Name, cv, k, bv, slack*100))
			}
		}
	}
	return out
}
