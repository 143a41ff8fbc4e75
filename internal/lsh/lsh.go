package lsh

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/strsim"
)

// The banding scheme: 21 bands of 3 rows (a 63-value signature) under a
// fixed hash-family seed. The curve 1-(1-J^3)^21 puts fuzzy label
// variants (trigram Jaccard ≥0.6, e.g. an edit-distance-1 typo of a
// multi-token label) above 0.99 collision probability while pruning the
// incidental regime — pairs sharing a single common token (J ≈ 0.2-0.3)
// collide under 25% of the time, so buckets stay small as the corpus
// grows instead of degenerating into the posting lists of an inverted
// index (see the package comment for the full curve).
const (
	bands = 21
	rows  = 3
	seed  = 0x6c746565 // "ltee"
)

// splitmix64 advances x and returns the next value of the splitmix64
// stream; it derives the per-function hash constants from the seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Hasher computes MinHash signatures and band bucket keys under the
// package's hash family. A Hasher is immutable and safe for concurrent use.
type Hasher struct {
	// a (forced odd) and b are the per-function mixing constants of the
	// bands·rows hash functions.
	a, b []uint64
}

// NewHasher builds the hash family.
func NewHasher() *Hasher {
	const k = bands * rows
	h := &Hasher{a: make([]uint64, k), b: make([]uint64, k)}
	s := uint64(seed)
	for i := 0; i < k; i++ {
		h.a[i] = splitmix64(&s) | 1
		h.b[i] = splitmix64(&s)
	}
	return h
}

// mix applies hash function i to an element hash.
func mix(e, a, b uint64) uint64 {
	v := (e ^ b) * a
	v ^= v >> 29
	v *= 0xBF58476D1CE4E5B9
	return v ^ (v >> 32)
}

// Element hashes are FNV-64a over the element string with a salt byte
// distinguishing whole tokens from trigrams, so the token "abc" and the
// trigram "abc" are distinct elements.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3

	tokenSalt = byte('t')
	gramSalt  = byte('g')
)

// tokenHash hashes a whole token element.
func tokenHash(tok string) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(tokenSalt)) * fnvPrime
	for i := 0; i < len(tok); i++ {
		h = (h ^ uint64(tok[i])) * fnvPrime
	}
	return h
}

// gramHash hashes one 3-byte window of the padded token.
func gramHash(b0, b1, b2 byte) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(gramSalt)) * fnvPrime
	h = (h ^ uint64(b0)) * fnvPrime
	h = (h ^ uint64(b1)) * fnvPrime
	h = (h ^ uint64(b2)) * fnvPrime
	return h
}

// appendTokenElems appends the element hashes of one token: the token
// itself plus every byte trigram of "^token$". Tokens come from the shared
// normalizer, so padding bytes cannot occur inside them.
func appendTokenElems(dst []uint64, tok string) []uint64 {
	dst = append(dst, tokenHash(tok))
	// Windows over the padded form, without materializing it: index -1 is
	// '^' and index len(tok) is '$'.
	at := func(i int) byte {
		switch {
		case i < 0:
			return '^'
		case i >= len(tok):
			return '$'
		default:
			return tok[i]
		}
	}
	for i := -1; i <= len(tok)-2; i++ {
		dst = append(dst, gramHash(at(i), at(i+1), at(i+2)))
	}
	return dst
}

// elemCache caches each interned token's element hashes. The cache is
// keyed on the intern ID purely for lookup speed — the hashes themselves
// derive from the token string, so two processes with different intern
// histories still compute identical signatures.
var elemCache struct {
	mu   sync.RWMutex
	byID [][]uint64
}

// elemsOf returns the (immutable) element hashes of tok, cached per
// interned token.
func elemsOf(tok string) []uint64 {
	id, ok := strsim.Intern(tok)
	if ok {
		elemCache.mu.RLock()
		var e []uint64
		if int(id) < len(elemCache.byID) {
			e = elemCache.byID[id]
		}
		elemCache.mu.RUnlock()
		if e != nil {
			return e
		}
	}
	e := appendTokenElems(make([]uint64, 0, len(tok)+3), tok)
	if ok {
		elemCache.mu.Lock()
		for int(id) >= len(elemCache.byID) {
			grow := len(elemCache.byID)*2 + 64
			next := make([][]uint64, grow)
			copy(next, elemCache.byID)
			elemCache.byID = next
		}
		elemCache.byID[id] = e
		elemCache.mu.Unlock()
	}
	return e
}

// Signature computes the MinHash signature of a normalized label into sig
// (reused when capacity allows). It returns nil when the label has no
// tokens — such labels carry no retrievable content and are not indexed.
func (h *Hasher) Signature(normLabel string, sig []uint64) []uint64 {
	const k = bands * rows
	if cap(sig) < k {
		sig = make([]uint64, k)
	}
	sig = sig[:k]
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	any := false
	for _, tok := range strings.Fields(normLabel) {
		for _, e := range elemsOf(tok) {
			any = true
			for i := 0; i < k; i++ {
				if v := mix(e, h.a[i], h.b[i]); v < sig[i] {
					sig[i] = v
				}
			}
		}
	}
	if !any {
		return nil
	}
	return sig
}

// AppendBandKeys folds the signature into one bucket key per band and
// appends them to dst. The band position is mixed into the key so equal
// row values in different bands never share a bucket.
func (h *Hasher) AppendBandKeys(dst []uint64, sig []uint64) []uint64 {
	for j := 0; j < bands; j++ {
		x := uint64(fnvOffset) ^ uint64(j+1)*0x9E3779B97F4A7C15
		for i := j * rows; i < (j+1)*rows; i++ {
			x = (x ^ sig[i]) * fnvPrime
		}
		x ^= x >> 33
		dst = append(dst, x)
	}
	return dst
}

// sigScratch recycles the signature and band-key buffers of Add and Query.
type sigScratch struct {
	sig  []uint64
	keys []uint64
}

var scratchPool = sync.Pool{New: func() any { return &sigScratch{} }}

// Index is an incremental banded LSH index over documents identified by
// caller-chosen int IDs. All methods are safe for concurrent use.
type Index struct {
	h  *Hasher
	mu sync.RWMutex
	// bands[j] maps a band-j bucket key to the documents filed under it,
	// in insertion order.
	bands []map[uint64][]int
	adds  int
}

// NewIndex returns an empty index with its own hasher.
func NewIndex() *Index {
	ix := &Index{h: NewHasher(), bands: make([]map[uint64][]int, bands)}
	for j := range ix.bands {
		ix.bands[j] = make(map[uint64][]int)
	}
	return ix
}

// Len returns the number of (doc, label) pairs added.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.adds
}

// Add files doc under the band buckets of the normalized label. Adding the
// same doc under several labels is allowed (Query deduplicates); labels
// with no tokens are ignored.
func (ix *Index) Add(doc int, normLabel string) {
	sc := scratchPool.Get().(*sigScratch)
	defer scratchPool.Put(sc)
	sig := ix.h.Signature(normLabel, sc.sig)
	if sig == nil {
		return
	}
	sc.sig = sig
	keys := ix.h.AppendBandKeys(sc.keys[:0], sig)
	sc.keys = keys
	ix.mu.Lock()
	for j, key := range keys {
		ix.bands[j][key] = append(ix.bands[j][key], doc)
	}
	ix.adds++
	ix.mu.Unlock()
}

// Query returns the sorted, deduplicated documents sharing at least one
// band bucket with the normalized label. A label with no tokens has no
// candidates.
func (ix *Index) Query(normLabel string) []int {
	return ix.AppendQuery(nil, normLabel)
}

// AppendQuery is Query appending into dst (overwritten, reused when
// capacity allows).
func (ix *Index) AppendQuery(dst []int, normLabel string) []int {
	dst = dst[:0]
	sc := scratchPool.Get().(*sigScratch)
	defer scratchPool.Put(sc)
	sig := ix.h.Signature(normLabel, sc.sig)
	if sig == nil {
		return dst
	}
	sc.sig = sig
	keys := ix.h.AppendBandKeys(sc.keys[:0], sig)
	sc.keys = keys
	ix.mu.RLock()
	for j, key := range keys {
		dst = append(dst, ix.bands[j][key]...)
	}
	ix.mu.RUnlock()
	sort.Ints(dst)
	// In-place dedup of the sorted candidates.
	out := dst[:0]
	for i, d := range dst {
		if i > 0 && dst[i-1] == d {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Clone returns an independent deep copy sharing only the immutable
// hasher.
func (ix *Index) Clone() *Index {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nc := &Index{h: ix.h, bands: make([]map[uint64][]int, len(ix.bands)), adds: ix.adds}
	for j, m := range ix.bands {
		nm := make(map[uint64][]int, len(m))
		for key, ids := range m {
			nm[key] = append([]int(nil), ids...)
		}
		nc.bands[j] = nm
	}
	return nc
}
