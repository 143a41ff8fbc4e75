package strsim

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// The token interner gives every distinct normalized token a small integer
// ID, so the Monge-Elkan inner loop compares integers instead of hashing
// strings. On top of the IDs sits a sharded memo of token-pair
// LevenshteinSim values: labels across a corpus share a heavy-tailed
// vocabulary, so the same token pairs recur millions of times per pipeline
// run. Memoized values are the exact floats the kernel computes, so
// memoization can never change a result, only skip recomputing it.
//
// Memory: every cache here is capped, because the serving layer feeds
// this package user-supplied strings (inline raw-table ingests), not just
// the generated corpus. The interner stops assigning IDs at internCap
// distinct tokens — internBytes then returns noTokenID and the Monge-Elkan
// entry points fall back to the string kernels, which compute exactly the
// same floats. The pair memo likewise stops inserting at memoShardCap per
// shard and recomputes through the pooled kernel.

var interner = struct {
	mu   sync.RWMutex
	ids  map[string]int32
	toks []string
}{ids: make(map[string]int32, 1024)}

// noTokenID marks a token the interner declined to intern (cap reached).
// Callers seeing it must fall back to the string kernels.
const noTokenID = int32(-1)

// internCap bounds the distinct tokens the interner will hold (a var so
// tests can exercise the overflow fallback without a million inserts).
var internCap = int32(1 << 20)

// internBytes returns the ID of the token spelled by b, interning it on
// first sight, or noTokenID once the interner is full. The read path does
// a no-allocation map lookup.
func internBytes(b []byte) int32 {
	interner.mu.RLock()
	id, ok := interner.ids[string(b)]
	interner.mu.RUnlock()
	if ok {
		return id
	}
	return internString(string(b))
}

// Intern returns the process-wide intern ID of an (already normalized)
// token, interning it on first sight; ok is false once the interner is
// full. IDs are stable for the process lifetime but depend on call
// history, so they may only key caches — never persisted state or values
// that must agree across processes.
func Intern(tok string) (id int32, ok bool) {
	id = internString(tok)
	return id, id != noTokenID
}

// internString is internBytes for an already-materialized string.
func internString(s string) int32 {
	interner.mu.RLock()
	id, ok := interner.ids[s]
	interner.mu.RUnlock()
	if ok {
		return id
	}
	interner.mu.Lock()
	defer interner.mu.Unlock()
	if id, ok := interner.ids[s]; ok {
		return id
	}
	if int32(len(interner.toks)) >= internCap {
		return noTokenID
	}
	id = int32(len(interner.toks))
	interner.toks = append(interner.toks, s)
	interner.ids[s] = id
	return id
}

// hasNoID reports whether any token in ids overflowed the interner.
func hasNoID(ids []int32) bool {
	for _, id := range ids {
		if id == noTokenID {
			return true
		}
	}
	return false
}

// tokenOf returns the interned token for an ID.
func tokenOf(id int32) string {
	interner.mu.RLock()
	t := interner.toks[id]
	interner.mu.RUnlock()
	return t
}

// appendTokenIDs tokenizes s exactly as Tokens does (maximal runs of
// letters/digits, lowercased) and appends the interned ID of each token to
// dst, without materializing intermediate strings.
func appendTokenIDs(dst []int32, s string) []int32 {
	sc := tokBufPool.Get().(*[]byte)
	buf := (*sc)[:0]
	flush := func() {
		if len(buf) > 0 {
			dst = append(dst, internBytes(buf))
			buf = buf[:0]
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	*sc = buf[:0]
	tokBufPool.Put(sc)
	return dst
}

var tokBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// idSlicePool recycles the token-ID scratch slices of the string-typed
// Monge-Elkan entry points.
var idSlicePool = sync.Pool{New: func() any {
	s := make([]int32, 0, 16)
	return &s
}}

// ---------------------------------------------------------------------------
// Token-pair similarity memo.

const (
	memoShardCount = 64
	// memoShardCap bounds each shard (~1M pairs total); beyond it the
	// memo stops inserting and pairs are recomputed by the pooled kernel.
	memoShardCap = 1 << 14
)

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
}

var memoShards [memoShardCount]memoShard

// levSimTok returns LevenshteinSim of two interned tokens, memoized.
func levSimTok(x, y int32) float64 {
	if x == y {
		return 1
	}
	lo, hi := x, y
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(uint32(lo))<<32 | uint64(uint32(hi))
	sh := &memoShards[key%memoShardCount]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		return v
	}
	v = LevenshteinSim(tokenOf(x), tokenOf(y))
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64]float64, 256)
	}
	if len(sh.m) < memoShardCap {
		sh.m[key] = v
	}
	sh.mu.Unlock()
	return v
}
