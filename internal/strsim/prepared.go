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
	// ids are the interned token IDs, parallel to Tokens.
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
		p.ids = make([]int32, len(p.Tokens))
		for i, t := range p.Tokens {
			p.ids[i] = Intern(t)
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

// MongeElkanSym returns the symmetrized Monge-Elkan similarity, exactly
// equal to MongeElkanSym(p.Raw, q.Raw).
func (p *PreparedLabel) MongeElkanSym(q *PreparedLabel) float64 {
	return mongeElkanSymIDs(p.ids, q.ids)
}
