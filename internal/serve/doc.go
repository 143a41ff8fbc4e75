// Package serve exposes a live knowledge base over a long-running
// HTTP/JSON API: entity lookup by instance ID, fuzzy label search backed
// by the inverted label index, per-class/per-epoch ingestion statistics,
// and an asynchronous ingest endpoint that queues table batches through a
// durable multi-class job scheduler while reads stay lock-free on the
// concurrent-safe KB.
//
// # Concurrency model
//
// Each served class has its own writer goroutine consuming its own
// capacity-bounded job queue, so independent classes ingest in parallel
// while jobs of one class keep strict FIFO order; a dedicated lane runs
// snapshots. All cross-class mutation is safe by construction — the KB
// (RWMutex + monotonic Version), the corpus (guarded method surface), and
// the label indexes are concurrent-safe — and an RWMutex over execution
// makes snapshots exclusive: ingests run under the read half, snapshots
// take the write half, so a manifest's epoch bookkeeping can never
// disagree with the KB instance chain it describes. POST /v1/ingest and
// POST /v1/snapshot enqueue jobs and return immediately (add ?wait=1 to
// block until the job finishes). When a class's queue is full the server
// rejects with 429 Too Many Requests and a Retry-After header —
// backpressure, distinct from the 503 returned once shutdown has begun.
// Read endpoints touch only concurrent-safe structures plus an LRU
// response cache keyed on kb.Version, so hot lookups skip retrieval
// entirely and can never serve a pre-mutation body for a post-mutation
// version.
//
// # Job durability
//
// With a snapshot directory configured, every job is journaled to
// jobs.ndjson in it — one fsynced record at admission carrying the full
// inputs, and one per status transition. A warm start replays the
// journal: jobs that finished come back as queryable history until their
// TTL expires, and jobs that were still queued or running when the
// process died come back as "interrupted", carrying their inputs so the
// operator can resubmit them (a killed epoch commits nothing, so
// resubmission is safe). The journal is compacted through
// kb.AtomicWriteFile like the KB snapshot files, and its appends pass
// kb.BeforeStep like every other durable step, so one seam lets crash
// tests fail or cut power at each step of both.
//
// # Dependencies
//
// An ingest or snapshot request may name jobs it must run after
// ("after": [ids]). The job dispatches only once every dependency
// finished successfully; if any dependency fails, is cancelled, or was
// interrupted, the dependent fails immediately with an error naming the
// dependency, and the failure cascades through deeper dependents.
// Dependency-parked jobs count against their lane's queue capacity.
//
// # Cancellation
//
// Every ingest job carries its own context. DELETE /v1/jobs/{id} cancels
// it: a queued job is skipped by its writer, a running one unwinds at the
// engine's next cooperative checkpoint and ends with status "cancelled" —
// the epoch commits nothing, the engine stays healthy, and the class
// accepts further ingests (unlike a panic, which poisons it). While a job
// runs, GET /v1/jobs/{id} reports the pipeline stage it most recently
// entered, fed by the engines' progress events. Shutdown(ctx) extends the
// same mechanism to process exit: the queues drain until the deadline,
// then everything still pending or running is cancelled cooperatively.
//
// # Snapshot persistence
//
// With a snapshot directory configured, the server warm-starts by loading
// the instances earlier runs wrote back (kb.LoadSnapshot) and resuming
// each engine's epoch counter from the manifest, so discoveries survive a
// restart without re-ingesting their tables. POST /v1/snapshot persists
// the current state atomically (temp file + rename, manifest last).
package serve
