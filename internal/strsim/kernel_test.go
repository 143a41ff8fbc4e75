package strsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// The optimized kernels must be provably equivalent to the unexported
// reference implementations: same integers, bit-identical floats. The
// generators below mix ASCII, multi-byte unicode, empty strings,
// near-duplicates, and repeated tokens — every shape the pipeline feeds
// the kernels.

var genRunes = []rune("abcdefgh züñ東 123ABZ -_.,√")

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteRune(genRunes[rng.Intn(len(genRunes))])
	}
	return b.String()
}

// mutate returns s with a small random edit, so near-duplicate pairs (the
// interesting region for bounded kernels) are well covered.
func mutate(rng *rand.Rand, s string) string {
	rs := []rune(s)
	if len(rs) == 0 {
		return string(genRunes[rng.Intn(len(genRunes))])
	}
	i := rng.Intn(len(rs))
	switch rng.Intn(3) {
	case 0: // substitute
		rs[i] = genRunes[rng.Intn(len(genRunes))]
	case 1: // delete
		rs = append(rs[:i], rs[i+1:]...)
	default: // insert
		rs = append(rs[:i], append([]rune{genRunes[rng.Intn(len(genRunes))]}, rs[i:]...)...)
	}
	return string(rs)
}

func randPair(rng *rand.Rand) (string, string) {
	a := randString(rng, 24)
	switch rng.Intn(3) {
	case 0:
		return a, randString(rng, 24)
	case 1:
		return a, mutate(rng, a)
	default:
		return a, a
	}
}

func TestLevenshteinMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b := randPair(rng)
		if got, want := Levenshtein(a, b), levenshteinRef(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, ref %d", a, b, got, want)
		}
	}
}

func TestLevenshteinSimMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a, b := randPair(rng)
		if got, want := LevenshteinSim(a, b), levenshteinSimRef(a, b); got != want {
			t.Fatalf("LevenshteinSim(%q, %q) = %v, ref %v", a, b, got, want)
		}
	}
}

// TestLevenshteinSimBounded proves the bounded kernel's contract: above
// the floor it returns exactly the reference similarity; at or below the
// floor it returns some value ≤ floor (so a best-candidate search keeps
// exactly the winners the unbounded kernel would).
func TestLevenshteinSimBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	floors := []float64{-0.5, 0, 0.25, 0.5, 0.8, 0.95, 1}
	for i := 0; i < 5000; i++ {
		a, b := randPair(rng)
		ref := levenshteinSimRef(a, b)
		for _, floor := range floors {
			got := LevenshteinSimBounded(a, b, floor)
			if ref > floor {
				if got != ref {
					t.Fatalf("LevenshteinSimBounded(%q, %q, %v) = %v, want exact ref %v", a, b, floor, got, ref)
				}
			} else if got > floor {
				t.Fatalf("LevenshteinSimBounded(%q, %q, %v) = %v > floor but ref %v <= floor", a, b, floor, got, ref)
			}
		}
	}
}

// TestLevenshteinBounded proves the distance form of the bounded kernel:
// exact when within max, max+1-capped otherwise.
func TestLevenshteinBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		a, b := randPair(rng)
		ref := levenshteinRef(a, b)
		for _, max := range []int{0, 1, 2, 5, 30} {
			got := LevenshteinBounded(a, b, max)
			if ref <= max {
				if got != ref {
					t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want exact %d", a, b, max, got, ref)
				}
			} else if got != max+1 {
				t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want %d (ref %d)", a, b, max, got, max+1, ref)
			}
		}
	}
}

func TestMongeElkanMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		a, b := randPair(rng)
		if got, want := MongeElkanSym(a, b), mongeElkanSymRef(a, b); got != want {
			t.Fatalf("MongeElkanSym(%q, %q) = %v, ref %v", a, b, got, want)
		}
	}
}

// TestPreparedMatchesRef proves the prepared fast path (interned IDs, the
// token-pair memo warm and cold) returns bit-identical Monge-Elkan values
// and exactly the reference tokens and term vector.
func TestPreparedMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a, b := randPair(rng)
		pa, pb := PrepareCached(a), PrepareCached(b)
		if got, want := pa.MongeElkanSym(pb), mongeElkanSymRef(a, b); got != want {
			t.Fatalf("Prepared MongeElkanSym(%q, %q) = %v, ref %v", a, b, got, want)
		}
		if want := Tokens(a); !reflect.DeepEqual(pa.Tokens, want) && !(len(pa.Tokens) == 0 && len(want) == 0) {
			t.Fatalf("Prepare(%q).Tokens = %q, want %q", a, pa.Tokens, want)
		}
		if got, want := pa.Norm, Normalize(a); got != want {
			t.Fatalf("Prepare(%q).Norm = %q, want %q", a, got, want)
		}
		ref := ToSparse(BinaryTermVector(a))
		got := pa.TermVec()
		if !reflect.DeepEqual(got.Elems, ref.Elems) && !(got.Len() == 0 && ref.Len() == 0) {
			t.Fatalf("Prepare(%q).TermVec = %v, want %v", a, got.Elems, ref.Elems)
		}
		if got.norm != ref.norm {
			t.Fatalf("Prepare(%q).TermVec norm = %v, want %v", a, got.norm, ref.norm)
		}
	}
}

// TestTermCosineMatchesRef proves the cached-vector cosine is bit-identical
// to the map-building reference for arbitrary label pairs.
func TestTermCosineMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		a, b := randPair(rng)
		got := TermCosine(a, b)
		want := Cosine(BinaryTermVector(a), BinaryTermVector(b))
		if got != want {
			t.Fatalf("TermCosine(%q, %q) = %v, ref %v", a, b, got, want)
		}
	}
}

// TestInternTokenization proves the no-intermediate-string tokenizer
// matches Tokens exactly.
func TestInternTokenization(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 3000; i++ {
		s := randString(rng, 40)
		ids := appendTokenIDs(nil, s)
		got := make([]string, len(ids))
		for j, id := range ids {
			got[j] = tokenOf(id).s
		}
		want := Tokens(s)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("appendTokenIDs(%q) = %q, Tokens = %q", s, got, want)
		}
	}
}

// TestMemoIsExact runs the same pair twice (cold, then memo-warm) and a
// concurrent burst, verifying the memo never changes a value.
func TestMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randPair(rng)
		cold := MongeElkanSym(a, b)
		warm := MongeElkanSym(a, b)
		if cold != warm {
			t.Fatalf("memo changed MongeElkanSym(%q, %q): %v then %v", a, b, cold, warm)
		}
	}
}

// TestInternerCapFallback fills the interner to its cap and proves the
// string-kernel fallback (taken for tokens the interner declines) still
// returns bit-exact reference values, that the interner stops growing,
// and that bounded-kernel pruning inside the fallback does not change
// maxima.
func TestInternerCapFallback(t *testing.T) {
	interner.mu.RLock()
	used := int32(len(interner.toks))
	interner.mu.RUnlock()
	old := internCap
	internCap = used // every new token overflows from here on
	defer func() { internCap = old }()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		// Fresh random strings: most tokens will be new, hence refused.
		a, b := randPair(rng)
		if got, want := MongeElkanSym(a, b), mongeElkanSymRef(a, b); got != want {
			t.Fatalf("capped MongeElkanSym(%q, %q) = %v, ref %v", a, b, got, want)
		}
		pa, pb := Prepare(a), Prepare(b)
		if got, want := pa.MongeElkanSym(pb), mongeElkanSymRef(a, b); got != want {
			t.Fatalf("capped prepared MongeElkanSym(%q, %q) = %v, ref %v", a, b, got, want)
		}
	}
	interner.mu.RLock()
	grown := int32(len(interner.toks))
	interner.mu.RUnlock()
	if grown > used {
		t.Fatalf("interner grew past its cap: %d -> %d", used, grown)
	}
}

func TestPrepareCachedReturnsSamePointer(t *testing.T) {
	p1 := PrepareCached("Some Label 42")
	p2 := PrepareCached("Some Label 42")
	if p1 != p2 {
		t.Fatal("PrepareCached did not cache")
	}
}

// randTokenLabel returns a label of up to maxTokens tokens drawn from a
// small vocabulary (so tokens repeat within and across labels), some
// mutated into near-duplicates and some multi-byte.
func randTokenLabel(rng *rand.Rand, maxTokens int) string {
	vocab := []string{"tom", "brady", "eli", "manning", "züñ", "東京", "42", "a", "new", "england"}
	n := rng.Intn(maxTokens + 1)
	toks := make([]string, n)
	for i := range toks {
		tok := vocab[rng.Intn(len(vocab))]
		if rng.Intn(4) == 0 {
			tok = mutate(rng, tok)
		}
		toks[i] = tok
	}
	return strings.Join(toks, " ")
}

// TestMongeElkanSymSinglePassMatchesRef proves the single-pass symmetric
// kernel bit-identical to averaging the two directed reference passes, on
// the interned path (string entry point and prepared labels) and on the
// non-interned string fallback. Labels run from empty to beyond
// symStackTokens tokens on either side, so the heap-buffer path and the
// rectangular shapes in both orientations are covered.
func TestMongeElkanSymSinglePassMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	type pair struct{ a, b string }
	pairs := []pair{{"", ""}, {"", "tom"}, {"tom tom tom", "tom"}, {"brady", ""}}
	for i := 0; i < 3000; i++ {
		a := randTokenLabel(rng, 2*symStackTokens+4)
		b := randTokenLabel(rng, 2*symStackTokens+4)
		if rng.Intn(3) == 0 {
			b = mutate(rng, a)
		}
		pairs = append(pairs, pair{a, b})
	}
	long := 0
	check := func(kernel string) {
		for _, p := range pairs {
			want := mongeElkanSymRef(p.a, p.b)
			if got := MongeElkanSym(p.a, p.b); got != want {
				t.Fatalf("%s MongeElkanSym(%q, %q) = %v, ref %v", kernel, p.a, p.b, got, want)
			}
			if got := Prepare(p.a).MongeElkanSym(Prepare(p.b)); got != want {
				t.Fatalf("%s prepared MongeElkanSym(%q, %q) = %v, ref %v", kernel, p.a, p.b, got, want)
			}
			if len(Tokens(p.b)) > symStackTokens {
				long++
			}
		}
	}
	check("interned")

	interner.mu.RLock()
	used := int32(len(interner.toks))
	interner.mu.RUnlock()
	old := internCap
	internCap = used
	defer func() { internCap = old }()
	// Fresh tokens now overflow the interner, so these pairs take the
	// string fallback.
	for i := range pairs {
		pairs[i].a += fmt.Sprintf(" fresh%dx", i)
		if i%2 == 0 {
			pairs[i].b += fmt.Sprintf(" fresh%dy", i)
		}
	}
	check("fallback")
	if long == 0 {
		t.Fatal("no pair exercised the heap column buffer")
	}
}
