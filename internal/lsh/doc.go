// Package lsh implements MinHash/LSH banding for sub-linear candidate
// retrieval over labels: the blocking lever of the entity-matching
// literature and the reason the paper's §3.4 candidate selection stays
// cheap as the knowledge base grows.
//
// # Construction
//
// A label's set representation is its normalized tokens plus the character
// trigrams of each token padded as "^token$" — the trigrams are what give
// the scheme the fuzzy recall the exact paths get from the SymSpell
// deletion index: an edit-distance-1 typo ("yesterday" → "yeserday")
// shares no token with the original, but roughly half of its padded
// trigrams, so its trigram Jaccard similarity sits near 0.5 where plain
// token Jaccard is 0.
//
// A Hasher computes a MinHash signature of Bands·Rows values per label
// under a seeded hash family, and folds each band of Rows values into one
// bucket key. Two labels with Jaccard similarity s collide in at least one
// band with probability 1−(1−s^Rows)^Bands — with the default 21 bands of
// 3 rows, s=0.7 collides with probability ≈0.9998, s=0.5 with ≈0.94,
// s=0.3 with ≈0.44, and s=0.2 with ≈0.15, while unrelated labels (s≈0)
// almost never do. The sharp knee is deliberate: fuzzy variants of the
// same label (a typo across a multi-token label keeps most of its
// trigrams, s ≥ 0.6) stay above 0.99, while pairs that merely share one
// common token land on the low shoulder — those are exactly the pairs
// whose posting lists grow linearly with the corpus, and pruning them is
// what keeps candidate sets bucket-bounded at scale.
//
// An Index files documents under their band bucket keys and retrieves, per
// query, the union of the query's buckets — near-O(1) per query instead of
// a walk over every posting of every query token.
//
// # Hybrid retrieval
//
// MinHash is blind to token weight: a match sharing a single rare,
// high-IDF token with the query sits at low Jaccard similarity — on the
// banding curve's low shoulder — yet can legitimately rank among the
// exact scorer's top hits. The label index (internal/index, Retrieve)
// therefore owns an Index of this package and unions its bucket
// candidates with a bounded rare-token posting walk: every posting of a
// query token whose document frequency is within a fixed cap is admitted
// directly. The two halves complement exactly — rare-token matches are
// cheap to walk by definition, and matches through common (past-cap)
// tokens need several shared tokens to outrank the floor, which is the
// high-similarity regime banding covers. The union is then re-ranked with
// the exact TF-IDF scorer under the same read lock, so retrieval order and
// tie-breaking are identical to the exact search whenever the candidate
// set covers its top hits; the equivalence tests in internal/cluster and
// internal/core assert per-call identity over the seed scenarios.
//
// # Determinism
//
// Element hashes are computed from the token and trigram strings (FNV-64a
// with a fixed seed), never from interner state: the process-wide intern
// IDs depend on call history and must not leak into signatures. The intern
// ID only keys a cache of per-token element hashes. Query results are
// returned sorted and deduplicated, and the hash family derives from a
// fixed seed, so every signature, bucket key, and candidate list is
// bit-identical across runs and across processes.
package lsh
