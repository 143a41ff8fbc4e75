package lsh

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSignatureDeterminism: same label → identical signatures and band
// keys, across hashers and regardless of intern-cache state.
func TestSignatureDeterminism(t *testing.T) {
	h1 := NewHasher()
	h2 := NewHasher()
	labels := []string{"aaron rodgers", "green bay packers", "yesterday", "x"}
	for _, l := range labels {
		s1 := h1.Signature(l, nil)
		s2 := h2.Signature(l, nil)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("signatures differ for %q", l)
		}
		k1 := h1.AppendBandKeys(nil, s1)
		k2 := h2.AppendBandKeys(nil, s2)
		if !reflect.DeepEqual(k1, k2) {
			t.Fatalf("band keys differ for %q", l)
		}
		if len(k1) != bands {
			t.Fatalf("got %d band keys, want %d", len(k1), bands)
		}
	}
	if h1.Signature("", nil) != nil || h1.Signature("   ", nil) != nil {
		t.Fatal("tokenless labels must yield a nil signature")
	}
}

// TestIndexRecall: fuzzy variants (edit distance 1) of indexed labels must
// retrieve their originals essentially always, and
// unrelated labels must not flood the candidate set.
func TestIndexRecall(t *testing.T) {
	ix := NewIndex()
	rng := rand.New(rand.NewSource(7))
	base := make([]string, 400)
	for i := range base {
		base[i] = fmt.Sprintf("%s %s%d", randWord(rng, 6+rng.Intn(4)), randWord(rng, 5+rng.Intn(5)), i)
		ix.Add(i, base[i])
	}
	found, queries := 0, 0
	unrelatedHits := 0
	for i, l := range base {
		// One-character deletion in the longest token.
		variant := mutate(l)
		queries++
		for _, d := range ix.Query(variant) {
			if d == i {
				found++
				break
			}
		}
		unrelatedHits += len(ix.Query(fmt.Sprintf("%s %s", randWord(rng, 8), randWord(rng, 8))))
	}
	if recall := float64(found) / float64(queries); recall < 0.97 {
		t.Fatalf("distance-1 recall = %.3f, want >= 0.97", recall)
	}
	if avg := float64(unrelatedHits) / float64(queries); avg > 5 {
		t.Fatalf("unrelated queries average %.1f candidates, want <= 5", avg)
	}
}

// TestIndexQuerySortedDedup: multi-label docs and shared buckets must not
// produce duplicates or unsorted output.
func TestIndexQuerySortedDedup(t *testing.T) {
	ix := NewIndex()
	ix.Add(3, "aaron rodgers")
	ix.Add(3, "aaron charles rodgers")
	ix.Add(1, "aaron rodgers qb")
	got := ix.Query("aaron rodgers")
	for i, d := range got {
		if i > 0 && got[i-1] >= d {
			t.Fatalf("query result not sorted/deduped: %v", got)
		}
	}
	if len(got) == 0 || got[len(got)-1] != 3 {
		t.Fatalf("expected doc 3 among candidates, got %v", got)
	}
}

// TestIndexClone: a clone answers identically and is isolated from the
// original afterwards.
func TestIndexClone(t *testing.T) {
	ix := NewIndex()
	for i, l := range []string{"alpha beta", "alpha gamma", "delta"} {
		ix.Add(i, l)
	}
	cl := ix.Clone()
	if !reflect.DeepEqual(ix.Query("alpha beta"), cl.Query("alpha beta")) {
		t.Fatal("clone answers differ")
	}
	cl.Add(99, "alpha beta")
	for _, d := range ix.Query("alpha beta") {
		if d == 99 {
			t.Fatal("clone add leaked into the original")
		}
	}
	if cl.Len() != ix.Len()+1 {
		t.Fatalf("clone len = %d, original = %d", cl.Len(), ix.Len())
	}
}

// TestIndexConcurrent exercises concurrent Add and Query under -race.
func TestIndexConcurrent(t *testing.T) {
	ix := NewIndex()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ix.Add(w*100+i, fmt.Sprintf("label %d %d", w, i))
				ix.Query(fmt.Sprintf("label %d %d", w, i/2))
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != 400 {
		t.Fatalf("len = %d, want 400", ix.Len())
	}
}

func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// mutate drops one middle character of the longest token.
func mutate(label string) string {
	longest, at := "", -1
	start := 0
	for i := 0; i <= len(label); i++ {
		if i == len(label) || label[i] == ' ' {
			if i-start > len(longest) {
				longest, at = label[start:i], start
			}
			start = i + 1
		}
	}
	if len(longest) < 3 {
		return label
	}
	cut := at + len(longest)/2
	return label[:cut] + label[cut+1:]
}
