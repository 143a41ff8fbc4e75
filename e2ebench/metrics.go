package main

import (
	"math"
	"slices"
	"strings"
	"time"
)

// percentile returns the q-quantile of xs by nearest rank (0 for none).
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetric is one end-to-end metric that a round computes from its own
// jobs and reads.
type e2eMetric struct {
	name, unit string
	of         func(*round) float64
}

// e2eMetrics lists the end-to-end metrics other than setup_s and
// live_heap_mb, which a round records directly.
var e2eMetrics = []e2eMetric{
	{"ingest_tables_per_s", "tables/s", func(r *round) float64 {
		return ratio(float64(r.tables), r.ingestWall.Seconds())
	}},
	{"ingest_job_ms_p90", "ms", func(r *round) float64 { return ms(percentile(r.jobLat, 0.9)) }},
	{"new_entity_f1", "ratio", func(r *round) float64 { return r.f1 }},
	{"read_rps", "req/s", func(r *round) float64 {
		return ratio(float64(r.reads.answered), r.reads.elapsed.Seconds())
	}},
	{"lookup_us_p50", "us", func(r *round) float64 { return us(percentile(r.reads.lat[lookup], 0.5)) }},
	{"lookup_us_p90", "us", func(r *round) float64 { return us(percentile(r.reads.lat[lookup], 0.9)) }},
	{"search_us_p50", "us", func(r *round) float64 { return us(percentile(r.reads.lat[search], 0.5)) }},
	{"search_us_p90", "us", func(r *round) float64 { return us(percentile(r.reads.lat[search], 0.9)) }},
	{"read_slo_frac", "ratio", func(r *round) float64 {
		return ratio(float64(r.reads.inSLO), float64(r.reads.attempted))
	}},
}

// endToEnd averages each metric over the sub-worlds; setup_s is the
// median over the pass's set-ups.
func endToEnd(p *pass) map[string]metric {
	out := make(map[string]metric, len(e2eMetrics)+2)
	n := float64(len(p.rounds))
	for i, m := range e2eMetrics {
		sum := 0.0
		for _, r := range p.rounds {
			sum += r.values[i]
		}
		out[m.name] = metric{sum / n, m.unit}
	}
	heap := 0.0
	var setups []time.Duration
	for _, r := range p.rounds {
		heap += r.heapMB
		setups = append(setups, r.setup)
	}
	out["live_heap_mb"] = metric{heap / n, "MB"}
	out["setup_s"] = metric{percentile(setups, 0.5).Seconds(), "s"}
	return out
}

// pooled sums a pass's ingest and read work over all its rounds.
type pooled struct {
	tables     int
	ingestWall time.Duration
	reads      readStats
}

func pool(p *pass) pooled {
	var s pooled
	for _, r := range p.rounds {
		s.tables += r.tables
		s.ingestWall += r.ingestWall
		s.reads.merge(r.reads)
		s.reads.elapsed += r.reads.elapsed
	}
	return s
}

func (s pooled) tablesPerSec() float64 { return ratio(float64(s.tables), s.ingestWall.Seconds()) }

func (s pooled) readRPS() float64 {
	return ratio(float64(s.reads.answered), s.reads.elapsed.Seconds())
}

// stages lists the engine's epoch stages in the order they run.
var stages = []string{"match", "build", "cluster", "fuse", "detect", "writeback"}

// perLayer computes the layer metrics of the traced pass; plain is the
// untraced pass of the same run, for the tracing overhead.
func perLayer(w workload, plain, traced *pass, tr *tracer, overshoot time.Duration) map[string]metric {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	// Engine stages, from the spans.
	secs := make(map[string]float64)
	units := make(map[string]float64)
	var epochs, queueWait, enqueue, snapshots []time.Duration
	epochStart := make(map[int]int64) // job span ID -> first stage start
	for _, s := range tr.spans {
		d := time.Duration(s.EndUS-s.StartUS) * time.Microsecond
		switch {
		case strings.HasPrefix(s.Name, "stage."):
			name := strings.TrimPrefix(s.Name, "stage.")
			secs[name] += d.Seconds()
			units[name] += float64(s.Count)
			if first, ok := epochStart[s.Parent]; !ok || s.StartUS < first {
				epochStart[s.Parent] = s.StartUS
			}
		case s.Name == "queue_wait":
			queueWait = append(queueWait, d)
		}
	}
	for _, s := range tr.spans {
		if first, ok := epochStart[s.ID]; ok {
			epochs = append(epochs, time.Duration(s.EndUS-first)*time.Microsecond)
		}
	}
	for _, name := range stages {
		put("core.stage."+name+"_s", secs[name], "s")
		put("core.stage."+name+"_units", units[name], "count")
	}
	put("core.detect_units_per_row", ratio(units["detect"], units["cluster"]), "ratio")
	put("core.epoch_ms_p50", ms(percentile(epochs, 0.5)), "ms")
	put("core.epoch_ms_p90", ms(percentile(epochs, 0.9)), "ms")

	// Server: job admission, queueing, snapshots, handlers, cache.
	var handler [2][]time.Duration
	var hits, misses [2]uint64
	var kbSearch, kbInstance []time.Duration
	var snapBytes []int64
	segments := 0.0
	for _, r := range tr.rounds {
		for _, j := range r.jobs {
			if j.kind == "ingest" {
				enqueue = append(enqueue, j.accepted.Sub(j.sent))
			} else {
				snapshots = append(snapshots, j.done.Sub(j.sent))
			}
		}
		for k := range handler {
			handler[k] = append(handler[k], r.handler[k]...)
			hits[k] += r.hits[k]
			misses[k] += r.misses[k]
		}
		kbSearch = append(kbSearch, r.kbSearch...)
		kbInstance = append(kbInstance, r.kbInstance...)
		snapBytes = append(snapBytes, r.snapBytes...)
		segments += float64(r.segments) / float64(len(tr.rounds))
	}
	put("serve.enqueue_ms_p50", ms(percentile(enqueue, 0.5)), "ms")
	put("serve.queue_wait_ms_p50", ms(percentile(queueWait, 0.5)), "ms")
	put("serve.queue_wait_ms_p90", ms(percentile(queueWait, 0.9)), "ms")
	put("serve.snapshot_ms_p50", ms(percentile(snapshots, 0.5)), "ms")
	for k, name := range []string{"instances", "search"} {
		put("serve.cache_hit_ratio."+name, ratio(float64(hits[k]), float64(hits[k]+misses[k])), "ratio")
	}
	for k, name := range []string{"lookup", "search"} {
		put("serve.handler_us_p50."+name, us(percentile(handler[k], 0.5)), "us")
		put("serve.handler_us_p99."+name, us(percentile(handler[k], 0.99)), "us")
	}
	t := pool(traced)
	client := append(slices.Clone(t.reads.lat[lookup]), t.reads.lat[search]...)
	served := append(slices.Clone(handler[lookup]), handler[search]...)
	put("http.overhead_us_p50", us(percentile(client, 0.5)-percentile(served, 0.5)), "us")

	// KB, called directly on the workload's own requests.
	put("kb.search_us_p50", us(percentile(kbSearch, 0.5)), "us")
	put("kb.instance_us_p50", us(percentile(kbInstance, 0.5)), "us")
	bytes := 0.0
	for _, b := range snapBytes {
		bytes += float64(b) / float64(len(snapBytes))
	}
	put("kb.snapshot_bytes_per_save", bytes, "bytes")
	put("kb.segments", segments, "count")

	// Go runtime over the traced pass.
	put("go.gc_cycles", float64(tr.gc1.cycles-tr.gc0.cycles), "count")
	put("go.gc_pause_ms", ms(tr.gc1.pause-tr.gc0.pause), "ms")
	put("go.gc_cpu_frac", ratio(tr.gc1.gcCPU-tr.gc0.gcCPU, tr.gc1.totalCPU-tr.gc0.totalCPU), "ratio")

	// Load generator and tracing validity.
	put("loadgen.sleep_overshoot_us_p50", us(overshoot), "us")
	p := pool(plain)
	overhead := ratio(p.tablesPerSec(), t.tablesPerSec()) - 1
	if !w.trickle {
		overhead = ratio(p.readRPS(), t.readRPS()) - 1
	}
	put("trace.overhead_frac", overhead, "ratio")
	return out
}
