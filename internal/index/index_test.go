package index

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddAndSearchExact(t *testing.T) {
	ix := New()
	ix.Add(1, "Tom Brady")
	ix.Add(2, "Peyton Manning")
	ix.Add(3, "Eli Manning")

	hits := ix.Search("Tom Brady", 10)
	if len(hits) == 0 || hits[0].Doc != 1 {
		t.Fatalf("exact search hits = %v", hits)
	}
	hits = ix.Search("Manning", 10)
	if len(hits) != 2 {
		t.Fatalf("shared-token search = %v, want 2 hits", hits)
	}
}

func TestSearchRanking(t *testing.T) {
	ix := New()
	ix.Add(1, "Brady")          // full token match on a short label
	ix.Add(2, "Tom Brady Jr X") // same token diluted by label length
	hits := ix.Search("Brady", 10)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Doc != 1 {
		t.Errorf("shorter label should rank first: %v", hits)
	}
}

func TestSearchTopK(t *testing.T) {
	ix := New()
	for i := 0; i < 50; i++ {
		ix.Add(i, fmt.Sprintf("Springfield %d", i))
	}
	hits := ix.Search("Springfield", 5)
	if len(hits) != 5 {
		t.Errorf("top-k = %d hits, want 5", len(hits))
	}
}

func TestSearchFuzzy(t *testing.T) {
	ix := New()
	ix.Add(1, "Springfield")
	hits := ix.Search("Sprinfield", 5) // one deletion away
	if len(hits) != 1 || hits[0].Doc != 1 {
		t.Errorf("fuzzy search = %v, want doc 1", hits)
	}
	// Two edits away: no match expected.
	if hits := ix.Search("Sprnfeld", 5); len(hits) != 0 {
		t.Errorf("too-far fuzzy search = %v, want none", hits)
	}
}

// TestSearchFuzzyPerToken is the recall regression test for the
// all-or-nothing fallback bug: the fuzzy pass used to run only when *no*
// query token had exact postings, so a query mixing an exact token with a
// misspelled one ("beatles yeserday") never fuzzy-expanded the misspelled
// token and lost exactly the long-tail labels the fallback exists for.
func TestSearchFuzzyPerToken(t *testing.T) {
	ix := New()
	ix.Add(1, "Yesterday")        // the intended target, reachable only fuzzily
	ix.Add(2, "Beatles for Sale") // shares the exact token "beatles"

	hits := ix.Search("beatles yeserday", 10)
	found := make(map[int]bool)
	for _, h := range hits {
		found[h.Doc] = true
	}
	if !found[2] {
		t.Errorf("exact token lost: hits = %v", hits)
	}
	if !found[1] {
		t.Errorf("misspelled token not fuzzy-expanded (pre-fix behavior): hits = %v", hits)
	}
	// The fully exact query still ranks its exact hits without interference.
	hits = ix.Search("beatles for sale", 10)
	if len(hits) == 0 || hits[0].Doc != 2 {
		t.Errorf("exact query = %v, want doc 2 first", hits)
	}
}

func TestSearchEmptyAndZeroK(t *testing.T) {
	ix := New()
	ix.Add(1, "Anything")
	if hits := ix.Search("", 5); hits != nil {
		t.Error("empty query should return nil")
	}
	if hits := ix.Search("Anything", 0); hits != nil {
		t.Error("k=0 should return nil")
	}
	if hits := ix.Search("!!!", 5); hits != nil {
		t.Error("punctuation-only query should return nil")
	}
}

func TestMultipleLabelsPerDoc(t *testing.T) {
	ix := New()
	ix.Add(7, "New York")
	ix.Add(7, "NYC")
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	if ls := ix.labels[7]; len(ls) != 2 {
		t.Errorf("labels = %v", ls)
	}
	hits := ix.Search("NYC", 5)
	if len(hits) != 1 || hits[0].Doc != 7 {
		t.Errorf("alias search = %v", hits)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	ix := New()
	ix.Add(5, "Alpha")
	ix.Add(3, "Alpha")
	for i := 0; i < 5; i++ {
		hits := ix.Search("Alpha", 10)
		if len(hits) != 2 || hits[0].Doc != 3 {
			t.Fatalf("tie break should order by doc ID: %v", hits)
		}
	}
}

func TestConcurrentAdd(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ix.Add(i, fmt.Sprintf("label %d alpha", i))
		}(i)
	}
	wg.Wait()
	if ix.Len() != 100 {
		t.Errorf("Len = %d, want 100", ix.Len())
	}
	if hits := ix.Search("alpha", 200); len(hits) != 100 {
		t.Errorf("search after concurrent add = %d hits", len(hits))
	}
}

// TestConcurrentAddSearch exercises the full concurrency contract under
// the race detector: Search, Retrieve (LSH buckets and postings read under
// one lock) and Len run while other goroutines add postings — the mode the
// incremental ingestion engine relies on (lookups keep serving while later
// batches grow the index).
func TestConcurrentAddSearch(t *testing.T) {
	t.Parallel()
	ix := New()
	for i := 0; i < 20; i++ {
		ix.Add(i, fmt.Sprintf("seed town %d", i))
	}
	const writers, readers, perWriter = 4, 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				doc := 100 + w*perWriter + i
				ix.Add(doc, fmt.Sprintf("grown town %d alpha", doc))
				ix.Add(doc, fmt.Sprintf("alias %d", doc)) // multi-label doc
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if hits := ix.Search("town", 50); len(hits) < 20 {
					t.Errorf("seed docs lost mid-growth: %d hits", len(hits))
					return
				}
				ix.Search("grwn", 5) // fuzzy path scans the vocabulary
				if hits := ix.Retrieve("seed town 3", 4); len(hits) == 0 || hits[0].Doc != 3 {
					t.Errorf("Retrieve lost seed doc 3 mid-growth: %v", hits)
					return
				}
				ix.Len()
			}
		}()
	}
	wg.Wait()

	if got, want := ix.Len(), 20+writers*perWriter; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// Everything added concurrently is retrievable afterwards.
	hits := ix.Search("alias 142", 5)
	if len(hits) == 0 || hits[0].Doc != 142 {
		t.Errorf("post-growth search = %v, want doc 142", hits)
	}
}

func TestSelfRetrievalProperty(t *testing.T) {
	// Any indexed label must retrieve its own document.
	f := func(words []string) bool {
		ix := New()
		label := ""
		for i, w := range words {
			if i >= 4 {
				break
			}
			if len(w) > 8 {
				w = w[:8]
			}
			label += " " + w
		}
		ix.Add(42, label)
		if len(ix.labels[42]) == 0 {
			return true // label normalized to nothing; nothing to assert
		}
		hits := ix.Search(label, 5)
		return len(hits) > 0 && hits[0].Doc == 42
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	ix := New()
	for i := 0; i < 10000; i++ {
		ix.Add(i, fmt.Sprintf("entity %d town %d", i, i%100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("town 42", 20)
	}
}
