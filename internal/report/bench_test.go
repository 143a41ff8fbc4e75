package report

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
)

// BenchmarkPaperTables regenerates every golden-pinned paper table over the
// test suite. The first run of a table pays for the experiment runs it
// needs, shared with the other tables through the suite's caches;
// TestPaperTablesGolden pins the content.
func BenchmarkPaperTables(b *testing.B) {
	s := testSuite()
	for _, pt := range paperTables {
		b.Run(pt.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pt.render(s, b.Context()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPipeline times a fresh pipeline run over the gold tables of class,
// with the suite's config for the class adjusted by mutate (nil keeps it).
// Models train outside the timed region. The cluster count and the number
// of mapped columns are reported beside the time.
func benchPipeline(b *testing.B, class kb.ClassID, mutate func(*core.Config)) {
	s := testSuite()
	models, err := s.ModelsFor(b.Context(), class)
	if err != nil {
		b.Fatal(err)
	}
	cfg := s.Config(class)
	if mutate != nil {
		mutate(&cfg)
	}
	p := core.New(cfg, models)
	tables := s.Golds[class].TableIDs
	b.ReportAllocs()
	b.ResetTimer()
	var out *core.Output
	for i := 0; i < b.N; i++ {
		if out, err = p.Run(b.Context(), tables); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(out.Entities) == 0 {
		b.Fatal("no entities")
	}
	mapped := 0
	for _, m := range out.Mapping {
		mapped += len(m)
	}
	b.ReportMetric(float64(out.Clustering.NumClusters()), "clusters")
	b.ReportMetric(float64(mapped), "mapped-cols")
}

// clustering is the §3.2 ablation setting: one iteration with the given
// blocking and KLj choices.
func clustering(blocking, klj bool) func(*core.Config) {
	return func(cfg *core.Config) {
		cfg.ClusterOpts.Blocking, cfg.ClusterOpts.KLj = blocking, klj
		cfg.Iterations = 1
	}
}

// iterations sets the pipeline's iteration count.
func iterations(n int) func(*core.Config) {
	return func(cfg *core.Config) { cfg.Iterations = n }
}

// BenchmarkPipelineEndToEnd measures a full two-iteration pipeline run over
// the gold tables of the Song class (the hardest class).
func BenchmarkPipelineEndToEnd(b *testing.B) { benchPipeline(b, kb.ClassSong, nil) }

// BenchmarkAblationBlockingOn clusters the Song rows with label blocking
// and KLj refinement (the class where clustering choices matter most).
func BenchmarkAblationBlockingOn(b *testing.B) {
	benchPipeline(b, kb.ClassSong, clustering(true, true))
}

// BenchmarkAblationBlockingOff compares every row against every cluster.
// F1 is unchanged; time is much worse.
func BenchmarkAblationBlockingOff(b *testing.B) {
	benchPipeline(b, kb.ClassSong, clustering(false, true))
}

// BenchmarkAblationGreedyOnly runs the parallel greedy pass without the
// KLj refinement.
func BenchmarkAblationGreedyOnly(b *testing.B) {
	benchPipeline(b, kb.ClassSong, clustering(true, false))
}

// BenchmarkAblationIterations1 runs the GF-Player pipeline with a single
// iteration.
func BenchmarkAblationIterations1(b *testing.B) { benchPipeline(b, kb.ClassGFPlayer, iterations(1)) }

// BenchmarkAblationIterations2 runs the standard two iterations.
func BenchmarkAblationIterations2(b *testing.B) { benchPipeline(b, kb.ClassGFPlayer, iterations(2)) }

// BenchmarkAblationIterations3 runs a third iteration (the paper: no gain).
func BenchmarkAblationIterations3(b *testing.B) { benchPipeline(b, kb.ClassGFPlayer, iterations(3)) }
