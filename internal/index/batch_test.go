package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/strsim"
)

// batchCorpus generates n (doc, label) entries with a narrow alphabet so
// vocabulary collisions, repeat tokens, and multi-label docs all occur.
func batchCorpus(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		doc := i
		if rng.Intn(5) == 0 && i > 0 {
			doc = rng.Intn(i) // multi-label doc
		}
		label := fmt.Sprintf("%s %s %d", randASCIIWord(rng), randASCIIWord(rng), i%13)
		if rng.Intn(7) == 0 {
			w := randASCIIWord(rng)
			label = w + " " + w // repeated token in one label
		}
		entries = append(entries, Entry{Doc: doc, Label: label})
	}
	return entries
}

// TestAddBatchEquivalentToAdds proves AddBatch produces byte-identical
// internal state to the same entries applied through one-by-one Adds —
// postings, document frequencies, labels, LSH buckets, and every deletion
// neighborhood list.
func TestAddBatchEquivalentToAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := batchCorpus(rng, 300)
	batched := New()
	batched.AddBatch(entries)
	if err := sameState(addOneByOne(entries), batched); err != nil {
		t.Fatal(err)
	}
}

// addOneByOne builds an index from entries through one Add per entry.
func addOneByOne(entries []Entry) *Index {
	ix := New()
	for _, e := range entries {
		ix.Add(e.Doc, e.Label)
	}
	return ix
}

// sameState reports the first internal structure in which two indexes
// differ, or nil if they hold the same state.
func sameState(want, got *Index) error {
	switch {
	case !reflect.DeepEqual(want.postings, got.postings):
		return fmt.Errorf("postings differ")
	case !reflect.DeepEqual(want.docFreq, got.docFreq):
		return fmt.Errorf("docFreq differs")
	case !reflect.DeepEqual(want.labels, got.labels):
		return fmt.Errorf("labels differ")
	case !reflect.DeepEqual(want.lsh, got.lsh):
		return fmt.Errorf("LSH buckets differ")
	case !reflect.DeepEqual(want.delNeighbors, got.delNeighbors):
		return fmt.Errorf("deletion neighborhoods differ")
	case want.numDocs != got.numDocs:
		return fmt.Errorf("numDocs %d vs %d", want.numDocs, got.numDocs)
	}
	return nil
}

// TestAddBatchThenAdd proves a batch build composes with later incremental
// Adds exactly as an all-serial build does.
func TestAddBatchThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	entries := batchCorpus(rng, 200)
	serial := addOneByOne(entries)
	mixed := New()
	mixed.AddBatch(entries[:150])
	for _, e := range entries[150:] {
		mixed.Add(e.Doc, e.Label)
	}
	for i := 0; i < 100; i++ {
		q := randASCIIWord(rng) + " " + randASCIIWord(rng)
		if !reflect.DeepEqual(serial.Search(q, 10), mixed.Search(q, 10)) {
			t.Fatalf("Search(%q) differs between serial and batch+incremental builds", q)
		}
		if !reflect.DeepEqual(serial.Retrieve(q, 10), mixed.Retrieve(q, 10)) {
			t.Fatalf("Retrieve(%q) differs between serial and batch+incremental builds", q)
		}
	}
}

// scoreLabel scores docs against a raw query label the way Retrieve does.
func scoreLabel(ix *Index, q string, docs []int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.scoreDocs(ix.appendTerms(nil, strsim.Tokens(q)), docs)
}

// TestScoreDocsMatchesSearch proves the re-rank contract: scoring the full
// document universe through scoreDocs and truncating to k reproduces
// Search's hits float-for-float, for exact, fuzzy, and mixed queries.
func TestScoreDocsMatchesSearch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	ix := New()
	words := make([]string, 0, 250)
	allDocs := make([]int, 0, 250)
	for i := 0; i < 250; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%11))
		allDocs = append(allDocs, i)
	}
	for i := 0; i < 300; i++ {
		w := words[rng.Intn(len(words))]
		q := w + " " + randASCIIWord(rng)
		if i%3 == 0 {
			q = w[:len(w)-1] + "zq " + w // misspelling → fuzzy path
		}
		want := ix.Search(q, 10)
		got := scoreLabel(ix, q, allDocs)
		if len(got) > 10 {
			got = got[:10]
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("scoreDocs(%q) truncated = %+v, Search = %+v", q, got, want)
		}
	}
}

// TestScoreDocsSubset proves scoring a candidate subset yields exactly the
// Search scores of its members (scores are per-doc, independent of the
// candidate set), and that unknown docs are dropped.
func TestScoreDocsSubset(t *testing.T) {
	t.Parallel()
	ix := New()
	ix.Add(1, "green bay packers")
	ix.Add(2, "green day")
	ix.Add(3, "bay city")
	ix.Add(2, "green bay")
	full := ix.Search("green bay", 10)
	byDoc := make(map[int]float64, len(full))
	for _, h := range full {
		byDoc[h.Doc] = h.Score
	}
	got := scoreLabel(ix, "green bay", []int{3, 1, 99})
	if len(got) != 2 {
		t.Fatalf("subset hits = %+v, want docs 1 and 3 only", got)
	}
	for _, h := range got {
		if byDoc[h.Doc] != h.Score {
			t.Fatalf("doc %d scored %v via subset, %v via Search", h.Doc, h.Score, byDoc[h.Doc])
		}
	}
	if !slices.IsSortedFunc(got, compareHits) {
		t.Fatalf("subset hits not in (score desc, doc asc) order: %+v", got)
	}
}

// TestScoreDocsEmpty covers the degenerate inputs.
func TestScoreDocsEmpty(t *testing.T) {
	t.Parallel()
	ix := New()
	ix.Add(1, "alpha beta")
	if h := scoreLabel(ix, "", []int{1}); len(h) != 0 {
		t.Fatalf("empty query scored %+v", h)
	}
	if h := scoreLabel(ix, "alpha", nil); len(h) != 0 {
		t.Fatalf("empty candidates scored %+v", h)
	}
	if h := scoreLabel(ix, "zzzz qqqq", []int{1}); len(h) != 0 {
		t.Fatalf("zero-overlap query scored %+v", h)
	}
}

// TestRetrieveMatchesSearch holds the hybrid retrieval to the exact
// scorer. While every posting list is within rareCap the rare-token walk
// alone reaches every scoring document, so Retrieve must equal Search
// hit for hit. Once common tokens pass the cap, Retrieve may miss weak
// common-token matches but must still score every hit it returns with
// Search's exact float, in Search's order, and rank an indexed label's
// own document first — through the LSH buckets when the label holds only
// common tokens.
func TestRetrieveMatchesSearch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(24))
	ix := New()
	words := make([]string, 0, 400)
	for i := 0; i < 250; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%11))
	}
	query := func(i int) string {
		w := words[rng.Intn(len(words))]
		switch i % 3 {
		case 0:
			return w[:len(w)-1] + "zq " + w // misspelling → fuzzy path
		case 1:
			return w + " " + randASCIIWord(rng)
		}
		return w
	}
	for i := 0; i < 300; i++ {
		q := query(i)
		if got, want := ix.Retrieve(q, 10), ix.Search(q, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("all-rare index: Retrieve(%q) = %+v, Search = %+v", q, got, want)
		}
	}

	// Grow "town" and "county" past the cap. Doc 400 shares only those
	// common tokens with its own label, so only the LSH buckets reach it.
	for i := 250; i < 400; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s town county", w))
	}
	ix.Add(400, "town county")
	for i := 0; i < 300; i++ {
		q := query(i)
		if i%4 == 0 {
			q += " town"
		}
		exact := make(map[int]float64)
		for _, h := range ix.Search(q, ix.Len()) {
			exact[h.Doc] = h.Score
		}
		got := ix.Retrieve(q, 10)
		for _, h := range got {
			if s, ok := exact[h.Doc]; !ok || s != h.Score {
				t.Fatalf("Retrieve(%q) scored doc %d %v, Search %v", q, h.Doc, h.Score, s)
			}
		}
		if !slices.IsSortedFunc(got, compareHits) {
			t.Fatalf("Retrieve(%q) hits out of order: %+v", q, got)
		}
	}
	for doc := 0; doc <= 400; doc += 8 {
		l := strings.Join(ix.labels[doc][0], " ")
		if got, want := ix.Retrieve(l, 1), ix.Search(l, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("Retrieve(%q) top = %+v, Search top = %+v", l, got, want)
		}
	}
}

// TestCloneIndependent proves a clone and its original each retrieve
// exactly as a fresh index built from their own entries, after both grew
// different documents under shared tokens concurrently.
func TestCloneIndependent(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(25))
	entries := batchCorpus(rng, 200)
	base, grown := entries[:150:150], entries[150:]
	moved := make([]Entry, len(grown))
	for i, e := range grown {
		moved[i] = Entry{Doc: e.Doc + 1000, Label: e.Label}
	}
	ix := New()
	ix.AddBatch(base)
	cl := ix.Clone()
	// Grow both sides at once: they share backing arrays, so the race
	// detector checks that neither writes into the other's view.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ix.AddBatch(grown) }()
	go func() { defer wg.Done(); cl.AddBatch(moved) }()
	wg.Wait()
	for _, c := range []struct {
		name    string
		got     *Index
		entries []Entry
	}{{"original", ix, entries}, {"clone", cl, append(base, moved...)}} {
		want := New()
		want.AddBatch(c.entries)
		for _, e := range entries {
			if !reflect.DeepEqual(c.got.Search(e.Label, 10), want.Search(e.Label, 10)) {
				t.Fatalf("%s: Search(%q) differs from a fresh build", c.name, e.Label)
			}
			if !reflect.DeepEqual(c.got.Retrieve(e.Label, 10), want.Retrieve(e.Label, 10)) {
				t.Fatalf("%s: Retrieve(%q) differs from a fresh build", c.name, e.Label)
			}
		}
	}
}
