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
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/lsh"
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
	// labels holds each doc's labels as their normalized tokens (substrings
	// of the normalized label), in insertion order, for scoreDocs.
	labels map[int][][]string
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
	// scanning every near-length vocabulary token. Each list holds its
	// tokens in vocabulary discovery order.
	delNeighbors map[string][]string
	numDocs      int
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
		postings:     make(map[string][]posting),
		docFreq:      make(map[string]int),
		labels:       make(map[int][][]string),
		lsh:          lsh.NewIndex(),
		delNeighbors: make(map[string][]string),
	}
}

// Add indexes label under the document ID doc.
func (ix *Index) Add(doc int, label string) {
	ix.AddBatch([]Entry{{Doc: doc, Label: label}})
}

// post files one label under doc — its tokens, its LSH buckets, and a tf
// posting and document-frequency count per distinct token — and files
// each token new to the vocabulary in the deletion neighborhood. Tokens
// are posted in sorted order, so the vocabulary's discovery order (which
// fixes the deletion-neighborhood lists) never inherits Go's randomized
// map iteration. The caller holds the write lock.
func (ix *Index) post(doc int, label string) {
	norm := strsim.Normalize(label)
	toks := strings.Fields(norm)
	if len(toks) == 0 {
		return
	}
	counts := make(map[string]int, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	if _, seen := ix.labels[doc]; !seen {
		ix.numDocs++
	}
	ix.labels[doc] = append(ix.labels[doc], toks)
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
			ix.indexDeletions(t)
		}
		ix.postings[t] = append(ps, posting{doc: doc, tf: float64(counts[t]) / float64(len(toks))})
	}
}

// Entry is one (document, label) pair for AddBatch.
type Entry struct {
	Doc   int
	Label string
}

// AddBatch indexes each entry's label under its document, in entry order,
// so however the entries are split into batches the index ends in the
// same state. The write lock is held for the whole batch, so concurrent
// readers observe either none or all of it.
func (ix *Index) AddBatch(entries []Entry) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, e := range entries {
		ix.post(e.Doc, e.Label)
	}
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
	return &Index{
		postings:     clipped(ix.postings),
		docFreq:      maps.Clone(ix.docFreq),
		labels:       clipped(ix.labels),
		lsh:          ix.lsh.Clone(),
		delNeighbors: clipped(ix.delNeighbors),
		numDocs:      ix.numDocs,
	}
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
			for _, lt := range labels {
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

// indexDeletions files a new vocabulary token under itself and each of
// its one-rune deletions. Adjacent equal runes produce identical deletions,
// which are filed once. The caller holds the write lock.
func (ix *Index) indexDeletions(t string) {
	ix.delNeighbors[t] = append(ix.delNeighbors[t], t)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		v := t[:bi] + t[bi+utf8.RuneLen(r):]
		ix.delNeighbors[v] = append(ix.delNeighbors[v], t)
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
	collect(ix.delNeighbors[t])
	vbuf := make([]byte, 0, 64)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		vbuf = append(vbuf[:0], t[:bi]...)
		vbuf = append(vbuf, t[bi+utf8.RuneLen(r):]...)
		// string(vbuf) in a map lookup does not allocate.
		collect(ix.delNeighbors[string(vbuf)])
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
