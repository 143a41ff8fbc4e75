package strsim

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Hello, World!", "hello world"},
		{"  A--B  ", "a b"},
		{"Déjà Vu", "déjà vu"},
		{"", ""},
		{"!!!", ""},
		{"Tom Brady (QB)", "tom brady qb"},
		{"St. Mary's", "st mary s"},
		{"123-456", "123 456"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("The Quick, Brown Fox!")
	want := []string{"the", "quick", "brown", "fox"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if Tokens("") != nil {
		t.Error("Tokens(\"\") should be nil")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"café", "cafe", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 64 {
			a = a[:64]
		}
		if len(b) > 64 {
			b = b[:64]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangleInequality(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 32 {
			a = a[:32]
		}
		if len(b) > 32 {
			b = b[:32]
		}
		if len(c) > 32 {
			c = c[:32]
		}
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSim(t *testing.T) {
	if s := LevenshteinSim("abc", "abc"); s != 1 {
		t.Errorf("identical strings sim = %v, want 1", s)
	}
	if s := LevenshteinSim("abc", "xyz"); s != 0 {
		t.Errorf("disjoint strings sim = %v, want 0", s)
	}
	if s := LevenshteinSim("abcd", "abce"); math.Abs(s-0.75) > 1e-9 {
		t.Errorf("sim = %v, want 0.75", s)
	}
}

func TestLevenshteinSimRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 48 {
			a = a[:48]
		}
		if len(b) > 48 {
			b = b[:48]
		}
		s := LevenshteinSim(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMongeElkan(t *testing.T) {
	if s := MongeElkanSym("Tom Brady", "tom brady"); s != 1 {
		t.Errorf("case-insensitive identical = %v, want 1", s)
	}
	// Token reordering should not matter for Monge-Elkan.
	if s := MongeElkanSym("Brady Tom", "Tom Brady"); s != 1 {
		t.Errorf("reordered tokens = %v, want 1", s)
	}
	// A shared surname should score clearly above zero but below one.
	s := MongeElkanSym("Tom Brady", "Kyle Brady")
	if s <= 0.3 || s >= 1 {
		t.Errorf("partial match = %v, want in (0.3, 1)", s)
	}
	if s := MongeElkanSym("", ""); s != 1 {
		t.Errorf("both empty = %v, want 1", s)
	}
	if s := MongeElkanSym("abc", ""); s != 0 {
		t.Errorf("one empty = %v, want 0", s)
	}
}

func TestMongeElkanRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 40 {
			a = a[:40]
		}
		if len(b) > 40 {
			b = b[:40]
		}
		s := MongeElkanSym(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosine(t *testing.T) {
	a := map[string]float64{"x": 1, "y": 1}
	b := map[string]float64{"x": 1, "y": 1}
	if s := Cosine(a, b); math.Abs(s-1) > 1e-9 {
		t.Errorf("identical vectors = %v, want 1", s)
	}
	c := map[string]float64{"z": 1}
	if s := Cosine(a, c); s != 0 {
		t.Errorf("orthogonal vectors = %v, want 0", s)
	}
	d := map[string]float64{"x": 1}
	if s := Cosine(a, d); math.Abs(s-1/math.Sqrt2) > 1e-9 {
		t.Errorf("half overlap = %v, want %v", s, 1/math.Sqrt2)
	}
	if s := Cosine(nil, nil); s != 1 {
		t.Errorf("both empty = %v, want 1", s)
	}
	if s := Cosine(a, nil); s != 0 {
		t.Errorf("one empty = %v, want 0", s)
	}
}

func TestCosineSymmetric(t *testing.T) {
	f := func(ka, kb []string) bool {
		a := map[string]float64{}
		b := map[string]float64{}
		for i, k := range ka {
			a[k] = float64(i%5) + 1
		}
		for i, k := range kb {
			b[k] = float64(i%3) + 1
		}
		return math.Abs(Cosine(a, b)-Cosine(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTermVectors(t *testing.T) {
	bv := BinaryTermVector("a b a", "b c")
	if bv["a"] != 1 || bv["b"] != 1 || bv["c"] != 1 {
		t.Errorf("BinaryTermVector = %v", bv)
	}
}

func TestMerge(t *testing.T) {
	var nilDst map[string]float64
	got := MergeBinary(nilDst, map[string]float64{"x": 9})
	if got["x"] != 1 {
		t.Errorf("MergeBinary on nil dst = %v", got)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	x := strings.Repeat("abcdefgh", 4)
	y := strings.Repeat("abcdxfgh", 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein(x, y)
	}
}

func BenchmarkMongeElkan(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MongeElkanSym("Thomas Edward Patrick Brady", "Tom Brady Jr")
	}
}
