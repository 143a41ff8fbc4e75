package strsim

import (
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

// TestLevenshteinBounded proves the bounded kernel: exact when within
// max, max+1-capped otherwise, with a negative max counting as 0 (so
// different strings never read as equal).
func TestLevenshteinBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		a, b := randPair(rng)
		ref := levenshteinRef(a, b)
		for _, m := range []int{-1, 0, 1, 2, 5, 30} {
			got, k := LevenshteinBounded(a, b, m), max(m, 0)
			if ref <= k {
				if got != ref {
					t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want exact %d", a, b, m, got, ref)
				}
			} else if got != k+1 {
				t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want %d (ref %d)", a, b, m, got, k+1, ref)
			}
		}
	}
}

// FuzzEditDistance checks the edit-distance kernels against the
// references on arbitrary byte strings: invalid UTF-8, long ASCII runs and
// mixed scripts, which the generators above never produce. k bounds
// LevenshteinBounded as given, negative and huge values included.
func FuzzEditDistance(f *testing.F) {
	f.Add("", "", 0)
	f.Add("kitten", "sitting", 2)
	f.Add("tom brady", "tom brady", 1)
	f.Add("züñ東京", "zun東", 3)
	f.Add("\xff\xfe", "\xfe", 1)
	f.Add("ab\x80cd", "abcd", 0)
	f.Add(strings.Repeat("a", 300), strings.Repeat("a", 298)+"bb", 5)
	f.Add("ελληνικά abc", "Ελληνικα abd", 40)
	f.Add("ab", "ba", -1)
	f.Fuzz(func(t *testing.T, a, b string, k int) {
		if len(a) > 512 || len(b) > 512 {
			t.Skip("the reference DP is quadratic")
		}
		ref := levenshteinRef(a, b)
		if got := Levenshtein(a, b); got != ref {
			t.Fatalf("Levenshtein(%q, %q) = %d, ref %d", a, b, got, ref)
		}
		if got, want := LevenshteinSim(a, b), levenshteinSimRef(a, b); got != want {
			t.Fatalf("LevenshteinSim(%q, %q) = %v, ref %v", a, b, got, want)
		}
		// min(ref, max(k, 0)+1), without overflowing at the largest k.
		want := ref
		if kk := max(k, 0); kk < ref {
			want = kk + 1
		}
		if got := LevenshteinBounded(a, b, k); got != want {
			t.Fatalf("LevenshteinBounded(%q, %q, %d) = %d, want %d (ref %d)", a, b, k, got, want, ref)
		}
	})
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
		got := pa.vec
		if !reflect.DeepEqual(got.Elems, ref.Elems) && !(got.Len() == 0 && ref.Len() == 0) {
			t.Fatalf("Prepare(%q).vec = %v, want %v", a, got.Elems, ref.Elems)
		}
		if got.norm != ref.norm {
			t.Fatalf("Prepare(%q).vec norm = %v, want %v", a, got.norm, ref.norm)
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
			got[j] = tokenOf(id)
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
// kernel bit-identical to averaging the two directed reference passes,
// through the string entry point and through prepared labels. Labels run
// from empty to beyond symStackTokens tokens on either side, so the
// heap-buffer path and the rectangular shapes in both orientations are
// covered.
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
	for _, p := range pairs {
		want := mongeElkanSymRef(p.a, p.b)
		if got := MongeElkanSym(p.a, p.b); got != want {
			t.Fatalf("MongeElkanSym(%q, %q) = %v, ref %v", p.a, p.b, got, want)
		}
		if got := Prepare(p.a).MongeElkanSym(Prepare(p.b)); got != want {
			t.Fatalf("prepared MongeElkanSym(%q, %q) = %v, ref %v", p.a, p.b, got, want)
		}
		if len(Tokens(p.b)) > symStackTokens {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no pair exercised the heap column buffer")
	}
}

// FuzzMongeElkanSym checks every Monge-Elkan entry point against the
// reference on arbitrary strings (invalid UTF-8 and mixed scripts
// included): the string kernel, prepared labels and the prepared-label
// cache must each equal mongeElkanSymRef bit for bit, in both argument
// orders.
func FuzzMongeElkanSym(f *testing.F) {
	f.Add("", "")
	f.Add("tom brady", "brady tom")
	f.Add("Tom  Brady!", "tom-brady")
	f.Add("züñ東京 abc", "zun 東 abd")
	f.Add("\xff\xfe ab", "ab\x80cd")
	f.Add("ελληνικά Abc", "Ελληνικα ABD")
	f.Add(strings.Repeat("tom brady ", 20), "tom")
	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 256 || len(b) > 256 {
			t.Skip("the reference is quadratic in tokens and in runes")
		}
		want := mongeElkanSymRef(a, b)
		if back := mongeElkanSymRef(b, a); back != want {
			t.Fatalf("reference not symmetric on (%q, %q): %v vs %v", a, b, want, back)
		}
		kernels := []struct {
			name string
			sim  func(x, y string) float64
		}{
			{"MongeElkanSym", MongeElkanSym},
			{"Prepare.MongeElkanSym", func(x, y string) float64 { return Prepare(x).MongeElkanSym(Prepare(y)) }},
			{"MongeElkanSymCached", MongeElkanSymCached},
		}
		for _, k := range kernels {
			if got := k.sim(a, b); got != want {
				t.Fatalf("%s(%q, %q) = %v, ref %v", k.name, a, b, got, want)
			}
			if got := k.sim(b, a); got != want {
				t.Fatalf("%s(%q, %q) = %v, ref %v (swapped)", k.name, b, a, got, want)
			}
		}
	})
}
