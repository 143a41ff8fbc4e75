package strsim

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// cosineKeys recycles the sorted-key scratch of Cosine so the determinism
// fix stays allocation-free on the BOW kernel path.
var cosineKeys = sync.Pool{New: func() any { return new([]string) }}

// Cosine returns the cosine similarity of two sparse vectors. Empty vectors
// have similarity 0 unless both are empty, in which case it is 1.
//
// Accumulation runs over sorted keys: float addition is not associative,
// so summing in map iteration order makes the low bits differ run to run
// (CosineSparse, the hot-path form, is sorted by construction).
func Cosine(a, b map[string]float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Iterate the smaller map for the dot product.
	if len(b) < len(a) {
		a, b = b, a
	}
	kp := cosineKeys.Get().(*[]string)
	defer cosineKeys.Put(kp)
	keys := (*kp)[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var dot, na float64
	for _, k := range keys {
		va := a[k]
		na += va * va
		if vb, ok := b[k]; ok {
			dot += va * vb
		}
	}
	keys = keys[:0]
	for k := range b {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var nb float64
	for _, k := range keys {
		vb := b[k]
		nb += vb * vb
	}
	*kp = keys
	if dot == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// KV is one component of a sparse vector.
type KV struct {
	K string
	V float64
}

// SparseVec is a sparse vector with components sorted by key and the
// Euclidean norm cached at construction. The fixed component order makes
// float accumulations (dot products, norms) independent of map iteration
// order, so similarity scores built from a SparseVec are bit-identical
// across runs — map-backed Cosine is not when the values are not all
// equal, because float addition is not associative. The cached norm saves
// a full vector walk per cosine on hot paths where vectors are immutable
// and shared (the clusterer's per-table PHI vectors).
type SparseVec struct {
	// Elems are the components, sorted by key.
	Elems []KV
	// norm is the cached Euclidean norm of Elems (0 when hand-built;
	// CosineSparse then recomputes it).
	norm float64
}

// Len returns the number of components.
func (v SparseVec) Len() int { return len(v.Elems) }

// ToSparse converts a map vector into its sorted sparse form.
func ToSparse(m map[string]float64) SparseVec {
	if len(m) == 0 {
		return SparseVec{}
	}
	elems := make([]KV, 0, len(m))
	for k, v := range m {
		elems = append(elems, KV{K: k, V: v})
	}
	slices.SortFunc(elems, func(a, b KV) int { return cmp.Compare(a.K, b.K) })
	return SparseVec{Elems: elems, norm: normElems(elems)}
}

// CosineSparse returns the cosine similarity of two sorted sparse vectors
// via a merge join. Empty vectors have similarity 0 unless both are empty,
// in which case it is 1 (matching Cosine).
func CosineSparse(a, b SparseVec) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 1
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 0
	}
	var dot float64
	i, j := 0, 0
	for i < len(a.Elems) && j < len(b.Elems) {
		switch {
		case a.Elems[i].K == b.Elems[j].K:
			dot += a.Elems[i].V * b.Elems[j].V
			i++
			j++
		case a.Elems[i].K < b.Elems[j].K:
			i++
		default:
			j++
		}
	}
	if dot == 0 {
		return 0
	}
	na, nb := a.norm, b.norm
	// A zero cached norm means the vector was built by hand rather than
	// through ToSparse (dot != 0 rules out genuinely zero vectors).
	if na == 0 {
		na = normElems(a.Elems)
	}
	if nb == 0 {
		nb = normElems(b.Elems)
	}
	return dot / (na * nb)
}

func normElems(elems []KV) float64 {
	var s float64
	for _, kv := range elems {
		s += kv.V * kv.V
	}
	return math.Sqrt(s)
}

// MergeBinary sets every key of src in dst with weight 1.
func MergeBinary(dst, src map[string]float64) map[string]float64 {
	if dst == nil {
		dst = make(map[string]float64, len(src))
	}
	for k := range src {
		dst[k] = 1
	}
	return dst
}
