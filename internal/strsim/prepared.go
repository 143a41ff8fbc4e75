package strsim

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// PreparedLabel is a label that has been normalized, tokenized, interned,
// and vectorized exactly once. Every similarity the pipeline computes over
// a label — Monge-Elkan against another label, a binary term vector for
// cosine — starts from these cached forms, so the per-comparison cost is
// the comparison itself, never re-tokenization. PreparedLabel is immutable
// after construction and safe to share across goroutines.
type PreparedLabel struct {
	// Raw is the string Prepare was given.
	Raw string
	// Norm is Normalize(Raw).
	Norm string
	// Tokens are the normalized tokens of Raw.
	Tokens []string
	// ids are the interned token IDs, parallel to Tokens; nil when the
	// interner was full (the similarity methods then run the string
	// kernels, which compute exactly the same values).
	ids []int32
	// vec is the sorted binary term vector over Tokens with its norm
	// cached (identical to ToSparse(BinaryTermVector(Raw))).
	vec SparseVec
}

// Prepare normalizes, tokenizes, interns, and vectorizes s.
func Prepare(s string) *PreparedLabel {
	p := &PreparedLabel{Raw: s, Norm: Normalize(s)}
	if p.Norm != "" {
		p.Tokens = strings.Fields(p.Norm)
	}
	if len(p.Tokens) > 0 {
		ids := make([]int32, len(p.Tokens))
		interned := true
		for i, t := range p.Tokens {
			if ids[i] = internString(t); ids[i] == noTokenID {
				interned = false
			}
		}
		if interned {
			p.ids = ids
		}
		uniq := make([]string, len(p.Tokens))
		copy(uniq, p.Tokens)
		sort.Strings(uniq)
		elems := make([]KV, 0, len(uniq))
		for i, t := range uniq {
			if i > 0 && uniq[i-1] == t {
				continue
			}
			elems = append(elems, KV{K: t, V: 1})
		}
		p.vec = SparseVec{Elems: elems, norm: normElems(elems)}
	}
	return p
}

// prepCache is the process-wide prepared-label cache behind PrepareCached.
// Capped: once prepCacheCap distinct strings have been prepared, further
// misses are computed but not stored (the pipeline's label vocabulary is
// corpus bounded and fits comfortably; the cap only guards pathological
// callers).
var (
	prepCache sync.Map // string → *PreparedLabel
	prepCount atomic.Int64
)

const prepCacheCap = 1 << 19

// PrepareCached returns the cached prepared form of s, preparing it on
// first sight. Labels, headers, property names, and cell values recur
// throughout a run, so this is the entry point the pipeline's metrics use.
func PrepareCached(s string) *PreparedLabel {
	if v, ok := prepCache.Load(s); ok {
		return v.(*PreparedLabel)
	}
	p := Prepare(s)
	if prepCount.Load() < prepCacheCap {
		if _, loaded := prepCache.LoadOrStore(s, p); !loaded {
			prepCount.Add(1)
		}
	}
	return p
}

// TermCosine returns the binary term-vector cosine of two labels through
// the prepared-label cache: equal to
// Cosine(BinaryTermVector(x), BinaryTermVector(y)) without rebuilding
// either map (binary vectors make every product term 1, so accumulation
// order cannot change the float result). This is the allocation-free form
// the BOW-style hot paths should use for raw strings.
func TermCosine(x, y string) float64 {
	return CosineSparse(PrepareCached(x).vec, PrepareCached(y).vec)
}

// TermVec returns the label's sorted binary term vector (weight 1 per
// distinct token, Euclidean norm cached). The caller must not mutate it.
func (p *PreparedLabel) TermVec() SparseVec { return p.vec }

// interned reports whether both labels carry interned IDs (empty labels
// have no IDs but also nothing to compare; treat them as interned so the
// empty/empty and empty/non-empty cases take the ID path's edge handling).
func bothInterned(p, q *PreparedLabel) bool {
	return (p.ids != nil || len(p.Tokens) == 0) && (q.ids != nil || len(q.Tokens) == 0)
}

// MongeElkanSym returns the symmetrized Monge-Elkan similarity, exactly
// equal to MongeElkanSym(p.Raw, q.Raw).
func (p *PreparedLabel) MongeElkanSym(q *PreparedLabel) float64 {
	if bothInterned(p, q) {
		return mongeElkanSymIDs(p.ids, q.ids)
	}
	return mongeElkanSymStrs(p.Tokens, q.Tokens)
}
