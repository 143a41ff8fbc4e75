package kb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// candidateCorpus builds instances over a narrow shared vocabulary across
// the three evaluation classes, the regime candidate retrieval serves.
func candidateCorpus(rng *rand.Rand, n int) []*Instance {
	word := func(ln int) string {
		b := make([]byte, ln)
		for i := range b {
			b[i] = byte('a' + rng.Intn(9))
		}
		return string(b)
	}
	classes := []ClassID{ClassGFPlayer, ClassSong, ClassSettlement}
	ins := make([]*Instance, 0, n)
	for i := 0; i < n; i++ {
		labels := []string{fmt.Sprintf("%s %s", word(5+rng.Intn(4)), word(6+rng.Intn(3)))}
		if rng.Intn(6) == 0 {
			labels = append(labels, labels[0]+" "+word(4)) // alias
		}
		ins = append(ins, &Instance{Class: classes[i%len(classes)], Labels: labels})
	}
	return ins
}

// searchIDs returns the instance IDs of SearchInstances, the exact
// reference Candidates is held to.
func searchIDs(t *testing.T, k *KB, q string, opts CandidateOpts) []InstanceID {
	t.Helper()
	hits, err := k.SearchInstances(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []InstanceID
	for _, h := range hits {
		ids = append(ids, h.Instance)
	}
	return ids
}

// TestCandidatesLSHEquivalence compares the LSH candidate path against the
// exact SearchInstances on an adversarial narrow vocabulary: deterministic
// output, identical relative order of shared candidates (both paths rank
// with the same exact scores), and candidate-set recall at or above the
// stated floor — including misspelled queries, which exercise the trigram
// recall of the LSH buckets.
func TestCandidatesLSHEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(51))
	k := New()
	ins := candidateCorpus(rng, 300)
	for _, in := range ins {
		k.AddInstance(in)
	}
	queries := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		l := ins[rng.Intn(len(ins))].Labels[0]
		if i%3 == 0 && len(l) > 6 { // typo: drop a rune mid-label
			cut := 2 + rng.Intn(len(l)-4)
			if l[cut] != ' ' {
				l = l[:cut] + l[cut+1:]
			}
		}
		queries = append(queries, l)
	}
	refTotal, hit := 0, 0
	for qi, q := range queries {
		opts := CandidateOpts{K: 8, Class: ins[qi%len(ins)].Class}
		got := k.Candidates(q, opts)
		got2 := k.Candidates(q, opts)
		if !reflect.DeepEqual(got, got2) {
			t.Fatalf("Candidates(%q) not deterministic: %v vs %v", q, got, got2)
		}
		ref := searchIDs(t, k, q, opts)
		// Relative order of shared members must match (same score floats,
		// same tie-break on both paths).
		pos := make(map[InstanceID]int, len(got))
		for i, id := range got {
			pos[id] = i
		}
		last := -1
		for _, id := range ref {
			refTotal++
			p, ok := pos[id]
			if !ok {
				continue
			}
			hit++
			if p <= last {
				t.Fatalf("Candidates(%q): shared candidates out of order: %v vs ref %v", q, got, ref)
			}
			last = p
		}
	}
	if recall := float64(hit) / float64(refTotal); recall < 0.97 {
		t.Fatalf("LSH candidate recall = %.3f over %d reference candidates, want >= 0.97", recall, refTotal)
	}
}

// TestSearchInstancesStaysExact proves the serving path ranks with the
// exact label search: its hits are the global index's exact top 3·K,
// class-filtered and cut to K, with the exact scores.
func TestSearchInstancesStaysExact(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(52))
	k := New()
	for _, in := range candidateCorpus(rng, 120) {
		k.AddInstance(in)
	}
	for i := 0; i < 50; i++ {
		q := candidateCorpus(rng, 1)[0].Labels[0]
		got, err := k.SearchInstances(context.Background(), q, CandidateOpts{K: 10, Class: ClassSong})
		if err != nil {
			t.Fatal(err)
		}
		var want []SearchHit
		for _, h := range k.globalIx.Search(q, 30) {
			if len(want) < 10 && k.SharesParent(k.InstanceClass(InstanceID(h.Doc)), ClassSong) {
				want = append(want, SearchHit{Instance: InstanceID(h.Doc), Score: h.Score})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchInstances(%q) = %v, exact reference %v", q, got, want)
		}
	}
}

// TestAddInstancesEquivalent proves the bulk loader is observably identical
// to serial AddInstance calls: same IDs, same class rosters, and the same
// retrieval results on both the exact and LSH paths.
func TestAddInstancesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	mk := func() []*Instance {
		r := rand.New(rand.NewSource(54))
		return candidateCorpus(r, 150)
	}
	serial := New()
	for _, in := range mk() {
		serial.AddInstance(in)
	}
	bulk := New()
	batch := mk()
	ids := bulk.AddInstances(batch)
	for i, id := range ids {
		if id != InstanceID(i+bulk.NumInstances()-len(batch)) {
			t.Fatalf("bulk ID %d = %v", i, id)
		}
	}
	if serial.NumInstances() != bulk.NumInstances() {
		t.Fatalf("instance counts differ: %d vs %d", serial.NumInstances(), bulk.NumInstances())
	}
	if bulk.Version() == 0 {
		t.Fatal("AddInstances did not bump the version")
	}
	for _, class := range []ClassID{ClassGFPlayer, ClassSong, ClassSettlement} {
		if !reflect.DeepEqual(serial.InstancesOf(class), bulk.InstancesOf(class)) {
			t.Fatalf("class %s rosters differ", class)
		}
	}
	for i := 0; i < 80; i++ {
		q := batch[rng.Intn(len(batch))].Labels[0]
		opts := CandidateOpts{K: 10, Class: ClassSong}
		if !reflect.DeepEqual(serial.Candidates(q, opts), bulk.Candidates(q, opts)) {
			t.Fatalf("Candidates(%q) differ between serial and bulk builds", q)
		}
		a, _ := serial.SearchInstances(context.Background(), q, opts)
		b, _ := bulk.SearchInstances(context.Background(), q, opts)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("SearchInstances(%q) differ between serial and bulk builds", q)
		}
	}
}
