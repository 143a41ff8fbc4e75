package strsim

import (
	"sync"
	"unicode/utf8"
)

// The edit-distance kernels below are the innermost loops of the whole
// pipeline: every LABEL metric, every blocking lookup, and the fuzzy index
// fallback bottom out here. There is one exact DP (editDist) and one
// banded DP (bandedDist), each generic over the element type: all-ASCII
// inputs (the common case after normalization) run it over their bytes
// without decoding, anything else over runes decoded into pooled buffers.
// The exported functions are allocation-free on the hot path — scratch DP
// rows and rune buffers come from a sync.Pool — and common
// prefixes/suffixes are trimmed before the DP. The pre-optimization
// implementations are kept as unexported *Ref functions; randomized and
// fuzz tests in kernel_test.go prove the optimized kernels return exactly
// the reference values.

// Levenshtein returns the edit distance between a and b over runes.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	sc := levPool.Get().(*levScratch)
	d, _, _ := sc.dist(a, b)
	levPool.Put(sc)
	return d
}

// LevenshteinSim normalizes the edit distance into a similarity in [0, 1].
// Both strings are decoded exactly once: the rune lengths the
// normalization needs are shared with the distance computation.
func LevenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	sc := levPool.Get().(*levScratch)
	d, la, lb := sc.dist(a, b)
	levPool.Put(sc)
	return simOf(d, la, lb)
}

// LevenshteinBounded returns the edit distance between a and b when it is
// at most max, and max+1 otherwise. The banded dynamic program touches
// only a 2·max+1 wide diagonal strip and abandons early, so "is the
// distance ≤ 1?" checks (the fuzzy index verification) cost O(n) instead
// of O(n²). A negative max counts as 0.
func LevenshteinBounded(a, b string, max int) int {
	if a == b {
		return 0
	}
	if max < 0 {
		max = 0
	}
	sc := levPool.Get().(*levScratch)
	defer levPool.Put(sc)
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if max >= la && max >= lb {
		d, _, _ := sc.dist(a, b)
		return d
	}
	return sc.distBounded(a, b, la, lb, max)
}

func simOf(d, la, lb int) float64 {
	m := max(la, lb)
	if m == 0 {
		return 1
	}
	return 1 - float64(d)/float64(m)
}

// ---------------------------------------------------------------------------
// Pooled scratch state.

// levScratch holds the reusable DP rows and rune buffers of one
// Levenshtein computation. Instances cycle through levPool, so
// steady-state kernel calls allocate nothing.
type levScratch struct {
	prev, cur []int
	ra, rb    []rune
}

var levPool = sync.Pool{New: func() any { return new(levScratch) }}

func (sc *levScratch) rows(n int) (prev, cur []int) {
	if cap(sc.prev) < n {
		sc.prev = make([]int, n)
		sc.cur = make([]int, n)
	}
	return sc.prev[:n], sc.cur[:n]
}

func (sc *levScratch) decode(a, b string) ([]rune, []rune) {
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	return sc.ra, sc.rb
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// dist computes the exact edit distance plus both rune lengths, decoding
// each string at most once. ASCII inputs are never decoded: they enter the
// DP as their bytes, a conversion the compiler makes without a copy
// because the slices neither escape nor are written.
func (sc *levScratch) dist(a, b string) (d, la, lb int) {
	if isASCII(a) && isASCII(b) {
		return editDist(sc, []byte(a), []byte(b)), len(a), len(b)
	}
	ra, rb := sc.decode(a, b)
	return editDist(sc, ra, rb), len(ra), len(rb)
}

// distBounded returns the exact distance when it is ≤ k, and some value
// > k otherwise (the banded DP abandons the computation as soon as every
// path through the band exceeds k). la and lb are the rune lengths,
// already known to the caller.
func (sc *levScratch) distBounded(a, b string, la, lb, k int) int {
	if la-lb > k || lb-la > k {
		return k + 1
	}
	if isASCII(a) && isASCII(b) {
		return bandedDist(sc, []byte(a), []byte(b), k)
	}
	ra, rb := sc.decode(a, b)
	return bandedDist(sc, ra, rb, k)
}

// editDist is the two-row DP over bytes or runes with common
// prefix/suffix trimming (trimming never changes the distance).
func editDist[E byte | rune](sc *levScratch, a, b []E) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev, cur := sc.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// levInf is the band sentinel: larger than any real distance, small
// enough that +1 arithmetic cannot overflow.
const levInf = 1 << 29

// bandedDist is the DP restricted to the diagonal strip |i−j| ≤ k, with
// sentinels just outside the strip and an early exit once a whole row
// exceeds k.
func bandedDist[E byte | rune](sc *levScratch, a, b []E, k int) int {
	la, lb := len(a), len(b)
	prev, cur := sc.rows(lb + 1)
	// Row 0 inside the band, sentinel just past it.
	hi0 := min(k, lb)
	for j := 0; j <= hi0; j++ {
		prev[j] = j
	}
	if hi0 < lb {
		prev[hi0+1] = levInf
	}
	for i := 1; i <= la; i++ {
		lo, hi := max(i-k, 1), min(i+k, lb)
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = levInf
		}
		rowMin := levInf
		ca := a[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			v := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if rowMin > k {
			return k + 1
		}
		if hi < lb {
			cur[hi+1] = levInf
		}
		prev, cur = cur, prev
	}
	if prev[lb] > k {
		return k + 1
	}
	return prev[lb]
}

// ---------------------------------------------------------------------------
// Reference implementations (pre-optimization), kept unexported so the
// randomized equivalence tests can prove the optimized kernels compute
// exactly the same values.

// levenshteinRef is the naive two-row DP over freshly decoded runes.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// levenshteinSimRef is the naive normalized similarity (re-decodes both
// strings for their lengths, as the pre-optimization code did).
func levenshteinSimRef(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(levenshteinRef(a, b))/float64(m)
}
