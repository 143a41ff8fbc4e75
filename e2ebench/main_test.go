package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// declaration is the part of BENCHMARK.json the benchmark must honour.
type declaration struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny is a config with two sub-worlds at the smallest scale that still
// finds new entities in every class, so a whole run takes about a second.
func tiny(t *testing.T, name string, trace bool) config {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("BENCHMARK.json declares workload %q, the benchmark has none", name)
	}
	return config{workload: w, seed: 3, seconds: time.Second, trace: trace,
		spans: t.TempDir(), subWorlds: 2, worldScale: 0.12, corpusScale: 0.07}
}

// runTiny runs cfg and fails the test unless every check passed.
func runTiny(t *testing.T, cfg config) *result {
	t.Helper()
	var problems strings.Builder
	res, err := run(context.Background(), cfg, &problems)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, problems.String())
	}
	return res
}

// checkMetrics requires exactly the declared metrics, each with its
// declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s in %q, declared %q", m.Name, v.Unit, m.Unit)
		case positive && !(v.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.Name, v.Value)
		}
	}
}

func TestEveryWorkloadReportsTheDeclaredMetrics(t *testing.T) {
	d := loadDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := runTiny(t, tiny(t, w.Name, false))
			checkMetrics(t, res.Metrics, d.EndToEnd, true)
		})
	}
}

// A traced run reports the layer metrics and writes its spans; its own
// checks include that tracing leaves new_entity_f1 unchanged.
func TestTracedRunReportsLayersAndSpans(t *testing.T) {
	d := loadDeclaration(t)
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := tiny(t, w.Name, true)
			res := runTiny(t, cfg)
			checkMetrics(t, res.Metrics, d.PerLayer, false)
			f, err := os.Open(filepath.Join(cfg.spans, w.Name+"-seed3.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			stages := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s span
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if s.EndUS < s.StartUS {
					t.Errorf("span %d ends before it starts", s.ID)
				}
				if strings.HasPrefix(s.Name, "stage.") {
					stages++
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if stages == 0 {
				t.Error("no stage spans")
			}
		})
	}
}

func TestBadArgumentsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mixed", "--trace", "2"},
		{"--workload", "mixed", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := realMain(context.Background(), args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
