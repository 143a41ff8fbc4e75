// Package index implements an inverted label index that substitutes for the
// Lucene index the paper uses in two places: blocking for row clustering
// (§3.2) and candidate selection for new detection (§3.4).
//
// Labels are tokenized with the shared normalizer; postings are scored with
// TF-IDF, and fuzzy retrieval additionally admits index tokens within edit
// distance one of any query token that has no exact posting of its own.
// Search is the exact scorer over every posting; Retrieve is the
// sub-linear hybrid (MinHash/LSH buckets plus a bounded rare-token posting
// walk, re-ranked by the exact scorer; see internal/lsh).
package index

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/lsh"
	"repro/internal/par"
	"repro/internal/strsim"
)

// Index is an inverted token index over string labels. Each added label is
// associated with a caller-chosen document ID; several labels may share an
// ID (e.g. an instance with multiple labels). All methods are safe for
// concurrent use: Add/AddBatch take the write lock, Search/Retrieve/Len
// take the read lock, so lookups may run while later batches add postings
// (each lookup observes a consistent snapshot — either before or after any
// concurrent Add, never a torn one).
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting // token -> docs containing it
	docFreq  map[string]int       // token -> number of distinct docs
	labels   map[int][]string     // doc -> normalized labels
	// lsh files every posted label under its MinHash band buckets, fed
	// under the write lock with the same normalized label, so Retrieve's
	// bucket lookup and posting walk read one consistent state.
	lsh *lsh.Index
	// delNeighbors is the single-deletion neighborhood index behind the
	// fuzzy fallback (the SymSpell construction): every vocabulary token
	// is filed under itself and each of its one-rune-deleted variants.
	// Two tokens within edit distance one necessarily share an entry
	// (equal, one a deletion of the other, or both deleting down to the
	// same variant on a substitution), so a query token reaches its
	// distance-1 vocabulary in O(|token|) map lookups plus a
	// bounded-Levenshtein verification per candidate — instead of
	// scanning every near-length vocabulary token.
	//
	// The index is sharded by the variant's first byte so AddBatch can
	// build it in parallel: each worker owns a disjoint set of shards, so
	// no shard is ever written by two goroutines. Shards need no locks of
	// their own — ix.mu already excludes every reader while any writer
	// (Add, AddBatch) holds the write lock.
	delNeighbors [delShardCount]map[string][]string
	numDocs      int
}

// delShardCount is the number of first-byte shards of delNeighbors.
const delShardCount = 256

// delShardOf returns the shard index of a deletion variant (the empty
// variant of single-rune tokens lands in shard 0).
func delShardOf(v string) int {
	if len(v) == 0 {
		return 0
	}
	return int(v[0])
}

// minFuzzyQueryLen is the minimum query-token byte length for the fuzzy
// fallback (an edit on a 1-3 letter token changes its identity).
const minFuzzyQueryLen = 4

type posting struct {
	doc int
	tf  float64
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]posting),
		docFreq:  make(map[string]int),
		labels:   make(map[int][]string),
		lsh:      lsh.NewIndex(),
	}
}

// Add indexes label under the document ID doc.
func (ix *Index) Add(doc int, label string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range ix.post(nil, doc, label) {
		ix.indexDeletions(t)
	}
}

// post files one label under doc — its normalized form, its LSH buckets,
// and a tf posting and document-frequency count per distinct token — and
// appends the tokens new to the vocabulary to dst. Tokens are posted in
// sorted order, so the vocabulary's discovery order (which fixes the
// deletion-neighborhood lists) never inherits Go's randomized map
// iteration. The caller holds the write lock.
func (ix *Index) post(dst []string, doc int, label string) []string {
	norm := strsim.Normalize(label)
	toks := strings.Fields(norm)
	if len(toks) == 0 {
		return dst
	}
	counts := make(map[string]int, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	if _, seen := ix.labels[doc]; !seen {
		ix.numDocs++
	}
	ix.labels[doc] = append(ix.labels[doc], norm)
	ix.lsh.Add(doc, norm)
	ts := make([]string, 0, len(counts))
	for t := range counts {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	for _, t := range ts {
		// Count each doc once per token for document frequency.
		ps := ix.postings[t]
		if len(ps) == 0 || ps[len(ps)-1].doc != doc {
			ix.docFreq[t]++
		}
		if len(ps) == 0 {
			dst = append(dst, t)
		}
		ix.postings[t] = append(ps, posting{doc: doc, tf: float64(counts[t]) / float64(len(toks))})
	}
	return dst
}

// Entry is one (document, label) pair for AddBatch.
type Entry struct {
	Doc   int
	Label string
}

// AddBatch indexes a batch of labels, equivalent to calling Add for each
// entry in order, with the deletion-neighborhood construction — the bulk of
// a cold build or warm restart — parallelized over the worker pool. The
// write lock is held for the whole batch, so concurrent readers observe
// either none or all of it.
//
// Determinism: postings, document frequencies, and LSH buckets are built
// serially in entry order, exactly as repeated Adds would. The parallel
// phases cannot reorder anything — variant computation is pure, and the
// per-shard insertion phase groups (variant, token) pairs by shard in token
// discovery order before handing each shard to exactly one worker, so every
// neighborhood list is byte-identical to the serial build's.
func (ix *Index) AddBatch(entries []Entry, workers int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	// Phase 1: serial postings build, collecting first-seen vocabulary.
	var newTokens []string
	for _, e := range entries {
		newTokens = ix.post(newTokens, e.Doc, e.Label)
	}
	if len(newTokens) == 0 {
		return
	}

	// Phases 2 and 3 fan out over the worker pool; nothing cancels them, so
	// neither can return an error.
	//lteelint:ignore ctxflow AddBatch is reached from the context-free kb.AddInstances; the build is bounded by the batch
	ctx := context.Background()

	// Phase 2: per-token deletion variants, computed in parallel (pure).
	variants, _ := par.MapCtx(ctx, workers, newTokens, func(_ int, t string) []string {
		return appendDeletionVariants(make([]string, 0, len(t)+1), t)
	})

	// Phase 3: group pairs by shard in token order, then insert with one
	// worker per shard (disjoint writes, no locks needed).
	var groups [delShardCount]struct{ vs, ts []string }
	for i, vs := range variants {
		for _, v := range vs {
			g := &groups[delShardOf(v)]
			g.vs = append(g.vs, v)
			g.ts = append(g.ts, newTokens[i])
		}
	}
	_ = par.ForEachCtx(ctx, workers, delShardCount, func(s int) {
		g := &groups[s]
		if len(g.vs) == 0 {
			return
		}
		if ix.delNeighbors[s] == nil {
			ix.delNeighbors[s] = make(map[string][]string, len(g.vs))
		}
		for i, v := range g.vs {
			ix.delNeighbors[s][v] = append(ix.delNeighbors[s][v], g.ts[i])
		}
	})
}

// Len returns the number of distinct documents in the index.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.numDocs
}

// Clone returns an independent copy of the index, LSH buckets included.
// Posting, label and neighborhood slices are shared with their capacity
// clipped to their length, so a later append on either side reallocates
// instead of writing into the other's view; nothing is re-tokenized.
func (ix *Index) Clone() *Index {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nc := &Index{
		postings: clipped(ix.postings),
		docFreq:  maps.Clone(ix.docFreq),
		labels:   clipped(ix.labels),
		lsh:      ix.lsh.Clone(),
		numDocs:  ix.numDocs,
	}
	for s, m := range ix.delNeighbors {
		if m != nil {
			nc.delNeighbors[s] = clipped(m)
		}
	}
	return nc
}

// clipped copies a map of slices, sharing each slice's backing array with
// its capacity clipped to its length.
func clipped[K comparable, V any](m map[K][]V) map[K][]V {
	out := make(map[K][]V, len(m))
	for k, v := range m {
		out[k] = v[:len(v):len(v)]
	}
	return out
}

// Hit is one search result: a document and its retrieval score.
type Hit struct {
	Doc   int
	Score float64
}

// term is one index token an expanded query scores through: a query token
// with postings of its own, or a vocabulary token within edit distance one
// of a query token without any (fuzzy, weighted by half).
type term struct {
	tok   string
	ps    []posting
	idf   float64
	fuzzy bool
}

// weight is the score a posting of tf contributes through the term.
func (t term) weight(tf float64) float64 {
	if t.fuzzy {
		return 0.5 * tf * t.idf
	}
	return tf * t.idf
}

// appendTerms expands query tokens into the terms that score them, in the
// one accumulation order every scorer follows (query tokens in order,
// sorted fuzzy variants within a token), so float sums are identical
// across scorers and runs. Query tokens shorter than minFuzzyQueryLen
// without a posting contribute nothing: an edit on a 1-3 letter token
// changes its identity. The caller holds the read lock.
func (ix *Index) appendTerms(dst []term, toks []string) []term {
	for _, t := range toks {
		if ps, ok := ix.postings[t]; ok {
			dst = append(dst, term{tok: t, ps: ps, idf: ix.idf(t)})
			continue
		}
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range ix.fuzzyMatches(t) {
			dst = append(dst, term{tok: vt, ps: ix.postings[vt], idf: ix.idf(vt), fuzzy: true})
		}
	}
	return dst
}

// Search returns up to k documents whose labels best match the query label,
// scored by TF-IDF over shared tokens. Query tokens without any exact
// posting fall back individually to a fuzzy pass that admits index tokens
// within Levenshtein distance 1 (distance-penalized), which keeps recall up
// for misspelled long-tail labels even when the query's other tokens match
// exactly — "beatles yeserday" still reaches the documents of "yesterday".
// Search walks every posting of every query term; Retrieve is its
// sub-linear counterpart.
func (ix *Index) Search(label string, k int) []Hit {
	toks := strsim.Tokens(label)
	if len(toks) == 0 || k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var buf [8]term
	scores := make(map[int]float64)
	for _, t := range ix.appendTerms(buf[:0], toks) {
		for _, p := range t.ps {
			scores[p.doc] += t.weight(p.tf)
		}
	}
	if len(scores) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(scores))
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: doc, Score: s})
	}
	slices.SortFunc(hits, compareHits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// rareCap bounds the posting lists Retrieve walks in full. Tokens whose
// lists stay within it are exactly the high-IDF tokens whose single-token
// matches can rank above the relative score floors downstream — and whose
// posting walks are cheap by the same definition.
const rareCap = 64

// Retrieve returns up to k documents ranked as Search ranks them, scoring
// only a candidate set whose size does not grow with the corpus: the
// documents sharing a MinHash band bucket with the query, unioned with
// every posting of a query term whose posting list holds at most rareCap
// entries. The union is re-scored by scoreDocs with Search's exact floats
// and tie-breaks, so Retrieve equals Search whenever the candidates cover
// Search's top k (internal/lsh, "Hybrid retrieval", explains why the two
// halves cover it). The whole recipe runs under one read lock.
func (ix *Index) Retrieve(label string, k int) []Hit {
	norm := strsim.Normalize(label)
	toks := strings.Fields(norm)
	if len(toks) == 0 || k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	var buf [8]term
	terms := ix.appendTerms(buf[:0], toks)
	if len(terms) == 0 {
		return nil
	}
	docs := ix.lsh.AppendQuery(nil, norm)
	// Rare-token postings: a match sharing only one rare token with the
	// query sits at a low Jaccard similarity, where banding collides
	// rarely, yet can carry enough IDF mass to belong in the top hits.
	// Common tokens stay excluded; matches through them need several
	// shared tokens to rank, the regime banding covers.
	for _, t := range terms {
		if len(t.ps) <= rareCap {
			for _, p := range t.ps {
				docs = append(docs, p.doc)
			}
		}
	}
	slices.Sort(docs)
	hits := ix.scoreDocs(terms, slices.Compact(docs))
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// scoreDocs scores the candidate documents against the expanded query
// with exactly Search's TF-IDF floats and returns every candidate with a
// nonzero score, sorted like Search's hits, without truncation. Each
// document's score is accumulated in Search's order (terms in order, the
// document's labels in insertion order) from the tf the posting stored, so
// a truncated scoreDocs ranking is float-for-float Search's whenever the
// candidates cover its top hits. Documents not in the index are omitted;
// docs must not contain duplicates. The caller holds the read lock.
func (ix *Index) scoreDocs(terms []term, docs []int) []Hit {
	hits := make([]Hit, 0, len(docs))
	for _, d := range docs {
		labels := ix.labels[d]
		score, found := 0.0, false
		for _, t := range terms {
			for _, l := range labels {
				lt := strsim.PrepareCached(l).Tokens
				n := 0
				for _, x := range lt {
					if x == t.tok {
						n++
					}
				}
				if n == 0 {
					continue
				}
				score += t.weight(float64(n) / float64(len(lt)))
				found = true
			}
		}
		if found {
			hits = append(hits, Hit{Doc: d, Score: score})
		}
	}
	slices.SortFunc(hits, compareHits)
	return hits
}

// compareHits orders hits by score descending, then doc ascending.
func compareHits(a, b Hit) int {
	return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Doc, b.Doc))
}

// appendDeletionVariants appends t's neighborhood entries — t itself and
// each of its one-rune deletions — to dst. Adjacent equal runes produce
// identical variants and are emitted once.
func appendDeletionVariants(dst []string, t string) []string {
	dst = append(dst, t)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		dst = append(dst, t[:bi]+t[bi+utf8.RuneLen(r):])
	}
	return dst
}

// indexDeletions files a new vocabulary token under itself and each of
// its one-rune deletions. The caller holds the write lock.
func (ix *Index) indexDeletions(t string) {
	for _, v := range appendDeletionVariants(nil, t) {
		s := delShardOf(v)
		if ix.delNeighbors[s] == nil {
			ix.delNeighbors[s] = make(map[string][]string, 64)
		}
		ix.delNeighbors[s][v] = append(ix.delNeighbors[s][v], t)
	}
}

// fuzzyMatches returns the vocabulary tokens within edit distance exactly
// one of query token t, sorted (fixed float accumulation order for the
// caller). The caller holds the read lock.
func (ix *Index) fuzzyMatches(t string) []string {
	// Gather candidate tokens sharing a deletion-neighborhood entry with
	// t: the entry of t itself (insertions into t and t's own postings —
	// the latter cannot occur, Search only falls back for tokens without
	// postings) and the entries of t's one-rune deletions (deletions and
	// substitutions).
	var cand []string
	collect := func(list []string) {
		for _, vt := range list {
			dup := false
			for _, c := range cand {
				if c == vt {
					dup = true
					break
				}
			}
			if !dup {
				cand = append(cand, vt)
			}
		}
	}
	collect(ix.delNeighbors[delShardOf(t)][t])
	vbuf := make([]byte, 0, 64)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		vbuf = append(vbuf[:0], t[:bi]...)
		vbuf = append(vbuf, t[bi+utf8.RuneLen(r):]...)
		s := 0
		if len(vbuf) > 0 {
			s = int(vbuf[0])
		}
		// string(vbuf) in a map lookup does not allocate.
		collect(ix.delNeighbors[s][string(vbuf)])
	}
	// Verify: sharing a deletion variant bounds the distance by two, not
	// one ("ab" and "ba" share "a"), so each candidate is checked with
	// the bounded kernel.
	matches := cand[:0]
	for _, vt := range cand {
		if vt != t && strsim.LevenshteinBounded(vt, t, 1) == 1 {
			matches = append(matches, vt)
		}
	}
	sort.Strings(matches)
	return matches
}

func (ix *Index) idf(tok string) float64 {
	df := ix.docFreq[tok]
	if df == 0 {
		return 0
	}
	// Smoothed IDF; rare tokens weigh more.
	return 1 + float64(ix.numDocs)/float64(df+1)
}
