package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
)

// BenchmarkHotpath runs every tracked body of All under the name
// cmd/ltee-bench records it by, so `go test -bench` and ltee-bench time
// the same code.
func BenchmarkHotpath(b *testing.B) { runAll(b, All()) }

// BenchmarkScale runs the corpus-scale bodies of Scale (ltee-bench -scale).
func BenchmarkScale(b *testing.B) { runAll(b, Scale()) }

func runAll(b *testing.B, benchmarks []Named) {
	for _, nb := range benchmarks {
		b.Run(nb.Name, nb.Fn)
	}
}

// BenchmarkFullRerun is the from-scratch counterpart of IngestBatch: one
// pipeline run over both halves of the same tables, with the same config
// and untrained models. The pair measures the win of the incremental
// engine, which ingests only the second half against retained state.
func BenchmarkFullRerun(b *testing.B) {
	f := pipeFixture(b)
	cfg := core.DefaultConfig(f.w.KB, f.corpus, kb.ClassGFPlayer)
	cfg.Iterations = 1
	p := core.New(cfg, core.Models{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := p.Run(b.Context(), f.tables)
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		if len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkServeLookup measures entity lookup by instance ID through the
// serving stack: the cached path (LRU keyed on kb.Version) against the
// uncached path that renders from the KB every time.
func BenchmarkServeLookup(b *testing.B) {
	f := serveFixture(b)
	target := fmt.Sprintf("/v1/instances/%d", pipeFixture(b).w.KB.NumInstances()-1)
	b.Run("cached", func(b *testing.B) { serveGet(b, f.cached, target) })
	b.Run("uncached", func(b *testing.B) { serveGet(b, f.uncached, target) })
}
