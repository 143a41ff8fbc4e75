package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/strsim"
)

// randASCIIWord generates a lowercase word of 4-10 letters.
func randASCIIWord(rng *rand.Rand) string {
	n := 4 + rng.Intn(7)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6)) // narrow alphabet → many near-misses
	}
	return string(b)
}

// scanFuzzy is the brute-force reference of fuzzyMatches: every vocabulary
// token at edit distance exactly one from t, by the unbounded kernel,
// sorted. The caller holds the read lock.
func scanFuzzy(ix *Index, t string) []string {
	var out []string
	for vt := range ix.postings {
		if strsim.Levenshtein(vt, t) == 1 {
			out = append(out, vt)
		}
	}
	sort.Strings(out)
	return out
}

// TestFuzzyMatchesAgreeWithScan proves the deletion-neighborhood index
// retrieves exactly the distance-1 vocabulary a scan of every vocabulary
// token finds, on ASCII and multi-byte vocabularies.
func TestFuzzyMatchesAgreeWithScan(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	ix := New()
	for i := 0; i < 400; i++ {
		ix.Add(i, randASCIIWord(rng)+" "+randASCIIWord(rng))
	}
	for i := 400; i < 440; i++ {
		ix.Add(i, strings.Replace(randASCIIWord(rng), "a", "é", 1)+" "+strings.Replace(randASCIIWord(rng), "b", "東", 1))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for i := 0; i < 600; i++ {
		q := randASCIIWord(rng)
		if i%4 == 0 {
			q = strings.Replace(q, "c", "é", 1)
		}
		if _, exact := ix.postings[q]; exact {
			continue // Search would not fall back for this token
		}
		fast := ix.fuzzyMatches(q)
		slow := scanFuzzy(ix, q)
		if len(fast) == 0 && len(slow) == 0 {
			continue
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fuzzyMatches(%q) = %v, scan = %v", q, fast, slow)
		}
	}
}

// refSearch is the reference Search: per-token TF-IDF over the postings,
// with the fuzzy fallback found by scanFuzzy.
func refSearch(ix *Index, label string, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	scores := make(map[int]float64)
	for _, t := range strsim.Tokens(label) {
		if ps, ok := ix.postings[t]; ok {
			for _, p := range ps {
				scores[p.doc] += p.tf * ix.idf(t)
			}
			continue
		}
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range scanFuzzy(ix, t) {
			for _, p := range ix.postings[vt] {
				scores[p.doc] += 0.5 * p.tf * ix.idf(vt)
			}
		}
	}
	var hits []Hit
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: doc, Score: s})
	}
	slices.SortFunc(hits, compareHits)
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TestSearchEquivalentAcrossStrategies proves full Search retrieval through
// the deletion index equals the scan-based reference search: same
// documents, same float scores, same ranking.
func TestSearchEquivalentAcrossStrategies(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	ix := New()
	words := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%17))
	}
	for i := 0; i < 200; i++ {
		// Query with one misspelled vocabulary word, so the fuzzy path
		// carries the score.
		w := words[rng.Intn(len(words))]
		q := w[:len(w)-1] + "zq"
		if i%2 == 0 {
			q += " " + words[rng.Intn(len(words))]
		}
		if got, want := ix.Search(q, 10), refSearch(ix, q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q) = %+v, reference = %+v", q, got, want)
		}
	}
}

// TestFuzzyUnicodeRecall checks a one-rune substitution that changes the
// byte length by two (ASCII → 3-byte rune) is still found: the deletion
// neighborhood works on runes, not bytes.
func TestFuzzyUnicodeRecall(t *testing.T) {
	ix := New()
	ix.Add(1, "tok東yo sights")     // vocab token "tok東yo"
	hits := ix.Search("tokayo", 5) // one substitution away, byte length 6 vs 8
	found := false
	for _, h := range hits {
		if h.Doc == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("deletion index did not find the multi-byte substitution neighbor")
	}
}

// FuzzFuzzyMatches holds the deletion neighborhood to its references on
// arbitrary vocabularies: labels (one per line, several per document) are
// added in one AddBatch, which must leave the state one-by-one Adds leave;
// Search must equal the scan-based reference search; and fuzzyMatches must
// equal the vocabulary scan for every query token Search would send to the
// fuzzy fallback. testdata/fuzz holds seeds with invalid UTF-8 and
// multi-byte runes.
func FuzzFuzzyMatches(f *testing.F) {
	f.Add("tom brady\ntom brody\nbrady bunch", "tom bardy")
	f.Add("tokyo sights\ntok東yo tower", "tokayo tower")
	f.Add("café racer\ncafe society\ncafés", "cafe racers")
	f.Add("aaaa\naaab\naabb\nabab", "aaba bbbb")
	f.Fuzz(func(t *testing.T, labels, query string) {
		if len(labels) > 4096 || len(query) > 256 {
			t.Skip("the references scan the whole vocabulary per token")
		}
		var entries []Entry
		for i, l := range strings.Split(labels, "\n") {
			entries = append(entries, Entry{Doc: i % 7, Label: l})
		}
		ix := New()
		ix.AddBatch(entries)
		if err := sameState(addOneByOne(entries), ix); err != nil {
			t.Fatalf("AddBatch vs one-by-one Adds: %v", err)
		}
		if got, want := ix.Search(query, 10), refSearch(ix, query, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q) = %+v, reference = %+v", query, got, want)
		}
		ix.mu.RLock()
		defer ix.mu.RUnlock()
		for _, q := range strsim.Tokens(query) {
			if _, exact := ix.postings[q]; exact || len(q) < minFuzzyQueryLen {
				continue // Search would not fall back for this token
			}
			if fast, slow := ix.fuzzyMatches(q), scanFuzzy(ix, q); !slices.Equal(fast, slow) {
				t.Fatalf("fuzzyMatches(%q) = %v, scan = %v", q, fast, slow)
			}
		}
	})
}

// BenchmarkFuzzySearch measures a fuzzy (misspelled-token) search at a
// realistic vocabulary size.
func BenchmarkFuzzySearch(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		ix.Add(i, randASCIIWord(rng)+" "+randASCIIWord(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("abcdzq misspeled", 20)
	}
}
