package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
)

// TestRunEmitsReport runs one cheap micro benchmark end to end and checks
// the emitted JSON document.
func TestRunEmitsReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "^Levenshtein$", "-benchtime", "5x", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	body, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(r.Benchmarks) != 1 || r.Benchmarks[0].Name != "Levenshtein" {
		t.Fatalf("benchmarks = %+v", r.Benchmarks)
	}
	if r.Benchmarks[0].Iterations < 5 || r.Benchmarks[0].NsPerOp <= 0 {
		t.Fatalf("implausible result: %+v", r.Benchmarks[0])
	}
}

// TestRunGatesOnBaseline: a baseline with a much smaller allocs/op must
// fail the run and list the regression in the report.
func TestRunGatesOnBaseline(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// A negative baseline forces a regression verdict however few allocs
	// the benchmark makes (the tracked kernels are allocation-free in
	// steady state, so any non-negative measurement must still trip it).
	if err := os.WriteFile(base, []byte(`{"benchmarks":[{"name":"Levenshtein","allocs_per_op":-1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "^Levenshtein$", "-benchtime", "5x", "-out", out, "-baseline", base}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (regression), stderr: %s", code, stderr.String())
	}
	body, _ := os.ReadFile(out)
	var r Report
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Regressions) != 1 {
		t.Fatalf("regressions = %v", r.Regressions)
	}
}

func TestRegressions(t *testing.T) {
	cur := []Result{{Name: "A", AllocsPerOp: 130}, {Name: "B", AllocsPerOp: 10}, {Name: "new", AllocsPerOp: 999}}
	base := []Result{{Name: "A", AllocsPerOp: 100}, {Name: "B", AllocsPerOp: 10}, {Name: "gone", AllocsPerOp: 1}}
	got := regressions(cur, base, 0.25)
	if len(got) != 1 {
		t.Fatalf("regressions = %v, want exactly the A overshoot", got)
	}
	if got := regressions(cur, base, 0.5); len(got) != 0 {
		t.Fatalf("with 50%% slack want none, got %v", got)
	}
}

// TestBaselineNamesRegistered: regressions skips benchmarks missing on
// either side, so a tracked benchmark renamed or dropped from the registry
// would silently leave the gate, and a registered one missing from the
// baseline would never enter it. The committed baseline's names must equal
// the registry's.
func TestBaselineNamesRegistered(t *testing.T) {
	base, err := loadReport("../../bench_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, nb := range append(bench.All(), bench.Scale()...) {
		registered[nb.Name] = true
	}
	tracked := make(map[string]bool)
	for _, r := range base.Benchmarks {
		tracked[r.Name] = true
		if !registered[r.Name] {
			t.Errorf("baseline benchmark %q is not registered in bench.All or bench.Scale", r.Name)
		}
	}
	for _, nb := range append(bench.All(), bench.Scale()...) {
		if !tracked[nb.Name] {
			t.Errorf("registered benchmark %q is missing from bench_baseline.json", nb.Name)
		}
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("baseline lists no benchmarks")
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "["}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad regexp: exit = %d, want 2", code)
	}
	if code := run([]string{"-run", "nothing-matches-this"}, &stdout, &stderr); code != 2 {
		t.Fatalf("no matches: exit = %d, want 2", code)
	}
	if code := run([]string{"-baseline", "/nonexistent.json", "-run", "^Levenshtein$", "-benchtime", "2x", "-out", "-"}, &stdout, &stderr); code != 2 {
		t.Fatalf("missing baseline: exit = %d, want 2", code)
	}
}
