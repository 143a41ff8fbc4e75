// Package repro reproduces "Extending Cross-Domain Knowledge Bases with
// Long Tail Entities using Web Table Data" (Oulabi & Bizer, EDBT 2019)
// and grows it into an incremental, servable long-tail entity extraction
// system.
//
// # Public API
//
// Everything importable lives under ltee/ — the versioned public surface:
//
//   - ltee: Engine/Pipeline construction via functional options
//     (WithWorkers, WithWriteBack, WithDedup, WithSeed, WithProgress, ...),
//     table-to-class matching, progress events, and the v1 stability
//     contract (see ltee.APIVersion).
//   - ltee/kb: the knowledge base — classes, instances, concurrent
//     growth, fuzzy search.
//   - ltee/webtable: the relational web-table model, HTML extraction, and
//     the WDC corpus format.
//   - ltee/dtype: typed values and comparison thresholds.
//   - ltee/scenario: the reproduction harness — deterministic synthetic
//     world, corpus, gold standards, trained models, and every evaluation
//     table of the paper.
//   - ltee/serve: the embeddable HTTP query/ingest server.
//   - ltee/cluster, ltee/agg, ltee/newdet, ltee/strsim, ltee/eval:
//     research-surface re-exports for clustering and detection studies.
//
// The minimal flow (see the package example and examples/quickstart):
//
//	byClass, _ := ltee.ClassifyTables(ctx, k, corpus)
//	eng, err := ltee.NewEngine(k, corpus, kb.ClassGFPlayer, ltee.WithWorkers(8))
//	out, stats, err := eng.Ingest(ctx, byClass[kb.ClassGFPlayer])
//
// # Cancellation
//
// Every long-running entry point takes a context.Context and cancels
// cooperatively: checkpoints sit at stage boundaries, inside the
// per-table and per-entity fan-outs, and between clustering batches and
// refinement rounds. A cancelled Ingest commits nothing — engine state
// and knowledge base are untouched, and the same batch can simply be
// retried. The serving layer exposes cancellation over HTTP as
// DELETE /v1/jobs/{id} and a deadline-bounded Shutdown.
//
// # The paper's pipeline
//
// The implementation under internal/ realizes the four-step LTEE process
// (schema matching, row clustering, entity creation, new detection, run
// for two iterations) over substrates built from scratch: a knowledge
// base with a class hierarchy and typed facts, a web-table model with
// HTML extraction and a synthetic corpus, string-similarity kernels, an
// inverted label index, learned matchers/scorers/detectors, the gold
// standard, and the paper's evaluation measures. internal/par provides
// the bounded worker pool behind every fan-out; all reductions are
// deterministic, so parallel runs are byte-identical to serial ones.
//
// # Incremental ingestion
//
// Beyond the paper's one-shot batch (ltee.Pipeline), ltee.Engine closes
// the knowledge-base completion loop for continuously arriving tables:
// each Ingest call is one epoch that matches, clusters and detects the
// batch against all retained state, then writes entities classified as
// new back into the KB (kb.ProvenanceIngest) so later batches match
// against earlier discoveries. Ingesting the whole corpus as one batch
// reproduces Pipeline.Run bit-for-bit.
//
// # Serving
//
// ltee/serve wraps one engine per class in a long-running HTTP/JSON
// server (cmd/ltee-serve): entity lookup, fuzzy label search,
// per-class/per-epoch statistics, asynchronous ingestion jobs —
// queryable, stage-annotated, and cancellable via DELETE /v1/jobs/{id} —
// and atomic snapshot persistence with warm restarts.
//
// # Performance
//
// The similarity hot path is an allocation-free, memoizing kernel
// (ltee/strsim re-exports it): one exact and one banded Levenshtein DP,
// each generic over bytes and runes so ASCII labels skip decoding,
// interned tokens with a Monge-Elkan pair memo, and
// prepared label forms threaded through clustering, matching, detection
// and the label index (whose fuzzy fallback runs on a single-deletion
// neighborhood index). Symmetric Monge-Elkan takes one pass over the
// token-pair matrix. Within an ingest epoch, row clustering scores each
// directed row pair, each PHI table pair and each fact-value string pair
// at most once, through a score cache that every pipeline iteration of the
// epoch shares and that dies with the epoch. cmd/ltee-bench tracks the
// hot-path benchmarks in BENCH_hotpath.json, gated in CI against
// bench_baseline.json.
//
// The benchmarks of internal/report regenerate every evaluation table of
// the paper; cmd/ltee prints them, and examples/ holds runnable
// end-to-end scenarios built exclusively on the public API.
//
// # Static analysis
//
// The invariants above — deterministic reductions, an unbroken
// cancellation chain, mutex-guarded state that never leaks, pooled
// buffers that always return, and the internal/ import boundary — are
// enforced mechanically by five project-specific analyzers (internal/lint:
// sortedrange, ctxflow, aliasret, poolput, internalboundary). CI runs
// them over the whole tree via the cmd/ltee-lint multichecker:
//
//	go run ./cmd/ltee-lint ./...
//
// A justified exception is suppressed in place with
// "//lteelint:ignore <analyzer> <reason>" on the line above the finding;
// the reason is mandatory and unused directives are themselves findings.
package repro
