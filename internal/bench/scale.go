package bench

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/strsim"
	"repro/internal/webtable"
	"repro/internal/world"
)

// This file holds the corpus-scale benchmarks of the LSH blocking layer.
// Two families prove the headline claim of sub-linear candidate
// generation:
//
//   - BlockAssign/{10k,100k}: block assignment for a fixed probe batch
//     against a label index of 10k vs 100k synthetic labels. The labels
//     share vocabulary tokens, so an exact TF-IDF search would score a
//     posting list that grows with the corpus, while the hybrid retrieval
//     (LSH buckets plus the capped rare-token walk) stays bounded.
//   - IngestScale/{1x,10x}: a full engine epoch over a fixed 12-table
//     batch, with the retained corpus (tables, clusterer state, KB
//     instances, block labels) grown 10x by a filler population that
//     reuses the base population's common tokens. Per-epoch cost must
//     stay near-flat (the CI gate holds 10x within 2x of 1x).
//
// Scale() lists both families; cmd/ltee-bench runs them behind -scale.

// Scale returns the corpus-scale benchmarks in a fixed order. Besides the
// two LSH families above, the list carries the storage benchmarks of
// memory.go: KBMemory/100k (resident bytes per instance) and
// SnapshotDelta (bytes written per incremental save).
func Scale() []Named {
	return []Named{
		{Name: "BlockAssign/10k", Fn: BlockAssign10k},
		{Name: "BlockAssign/100k", Fn: BlockAssign100k},
		{Name: "IngestScale/1x", Fn: IngestScale1x},
		{Name: "IngestScale/10x", Fn: IngestScale10x},
		{Name: "KBMemory/100k", Fn: KBMemory100k},
		{Name: "SnapshotDelta", Fn: SnapshotDelta},
	}
}

// ---------------------------------------------------------------------------
// BlockAssign: block retrieval cost vs label-corpus size.

// synthVocab is the shared token vocabulary of the synthetic labels.
// Reusing tokens across labels is the point: it makes the posting lists
// grow with the corpus, as a real Zipfian vocabulary would.
var synthVocab = func() []string {
	out := make([]string, 257)
	for i := range out {
		out[i] = fmt.Sprintf("w%c%c%d", 'a'+rune(i%26), 'a'+rune((i/26)%26), i%10)
	}
	return out
}()

// synthLabel returns the i-th synthetic label: two vocabulary tokens plus
// a unique disambiguator, so labels collide on postings yet stay distinct.
// The two token streams cycle with coprime periods (257 and 251), so token
// PAIRS essentially never repeat: the corpus grows each token's posting
// list linearly — an exact search's cost — without manufacturing an
// ever-growing class of near-duplicate labels that no blocker could prune.
func synthLabel(i int) string {
	a := synthVocab[(i*7+3)%len(synthVocab)]
	b := synthVocab[(i*13+5)%251]
	return a + " " + b + " u" + strconv.Itoa(i)
}

type blockFix struct {
	bi    *cluster.BlockIndex
	probe []*cluster.Row
}

var blockFixes sync.Map // labels int -> *blockFix

// blockFixture builds (once per size) a BlockIndex over n synthetic labels
// and a 64-row probe batch whose labels are already indexed, so each
// benchmark op measures pure block retrieval at corpus size n.
func blockFixture(b *testing.B, n int) *blockFix {
	b.Helper()
	if v, ok := blockFixes.Load(n); ok {
		return v.(*blockFix)
	}
	rows := make([]*cluster.Row, n)
	for i := range rows {
		rows[i] = &cluster.Row{NormLabel: strsim.Normalize(synthLabel(i))}
	}
	bi := cluster.NewBlockIndex()
	bi.Assign(rows, blockTopK)
	probe := make([]*cluster.Row, 64)
	step := n / len(probe)
	for i := range probe {
		probe[i] = &cluster.Row{NormLabel: strsim.Normalize(synthLabel(i * step))}
	}
	bf := &blockFix{bi: bi, probe: probe}
	blockFixes.Store(n, bf)
	return bf
}

// blockTopK mirrors the engine's default block fan-out.
const blockTopK = 6

func blockAssign(b *testing.B, n int) {
	f := blockFixture(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.bi.Assign(f.probe, blockTopK)
		if len(f.probe[0].Blocks) == 0 {
			b.Fatal("no blocks assigned")
		}
	}
}

func BlockAssign10k(b *testing.B)  { blockAssign(b, 10_000) }
func BlockAssign100k(b *testing.B) { blockAssign(b, 100_000) }

// ---------------------------------------------------------------------------
// IngestScale: engine epoch cost vs retained-corpus size.

type scaleFix struct {
	eng   *core.Engine
	batch []int
}

var scaleFixes sync.Map // scale int -> *scaleFix

// scaleFixture builds (once per scale) an engine whose retained state —
// clusterer, block labels, PHI statistics, and KB instances — covers the
// base world plus (scale-1) filler copies of it, then returns the engine
// and a fixed 12-table batch from the base population. Filler labels
// recombine the base vocabulary with a unique disambiguator token: the
// shared postings grow with the scale, while the
// batch's true match neighborhood (the base population) is identical at
// every scale. The warm-up ingests in two steps so the engine's
// entity/detection memos cover the retained clusters, exactly as a
// long-running engine's would.
func scaleFixture(b *testing.B, scale int) *scaleFix {
	b.Helper()
	sf, err := buildScaleFixture(scale)
	if err != nil {
		b.Fatalf("scale fixture: %v", err)
	}
	return sf
}

func buildScaleFixture(scale int) (*scaleFix, error) {
	if v, ok := scaleFixes.Load(scale); ok {
		return v.(*scaleFix), nil
	}
	w := world.Generate(world.DefaultConfig(0.2))
	c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
	byClass, err := core.ClassifyTables(context.Background(), w.KB, c, 0.3, 0)
	if err != nil {
		return nil, fmt.Errorf("classify: %v", err)
	}
	base := byClass[kb.ClassGFPlayer]
	if len(base) < 13 {
		return nil, fmt.Errorf("only %d base tables", len(base))
	}
	batch := append([]int(nil), base[len(base)-12:]...)
	warm := append([]int(nil), base[:len(base)-12]...)

	// The two most frequent tokens of the base population's instance
	// labels, ties broken alphabetically. Filler labels borrow exactly
	// these: Zipfian corpus growth concentrates new postings on already
	// common tokens, so growing the corpus 10x pushes the common tokens'
	// document frequency past the rare-token cap — both retrieval layers
	// (LSH banding and the rare-token walk) then prune filler matches,
	// while the rare name tokens of the base population gain no postings
	// at all and keep their walks bounded. An exact search has no such
	// cap and would score every posting of a shared common token.
	freq := make(map[string]int)
	for _, id := range w.KB.InstancesOf(kb.ClassGFPlayer) {
		for _, tok := range strsim.Tokens(w.KB.InstanceLabel(id)) {
			freq[tok]++
		}
	}
	vocab := make([]string, 0, len(freq))
	for tok := range freq {
		vocab = append(vocab, tok)
	}
	sort.Slice(vocab, func(i, j int) bool {
		if freq[vocab[i]] != freq[vocab[j]] {
			return freq[vocab[i]] > freq[vocab[j]]
		}
		return vocab[i] < vocab[j]
	})
	common := vocab[0] + " " + vocab[1]
	// fillerLabel names the filler entity for base row index i: the two
	// common base tokens (so the posting lists for those tokens grow
	// linearly with scale, past the rare cap) diluted by two
	// filler-own tokens (so the trigram Jaccard against any base label
	// stays low and LSH prunes the pair, and the common tokens' relative
	// TF-IDF mass stays under the block score floor). The label is keyed
	// by the BASE row, not a running counter: the scale copies repeat it,
	// giving every filler entity its own duplicate class — as real corpus
	// growth does — instead of a unique label whose nearest neighbours
	// are all in the base population.
	fillerLabel := func(i int) string {
		return common +
			" qf" + strconv.Itoa((i*3+1)%53) +
			"x n" + strconv.Itoa(i)
	}

	// kbLabel names the s-th copy's distinct KB filler instance for base
	// row index i — same shape as fillerLabel (common tokens, diluted),
	// but unique per copy: the KB gains ~10x distinct instances carrying
	// common tokens, which an exact candidate search would have to wade
	// through.
	kbLabel := func(s, i int) string {
		return common +
			" qk" + strconv.Itoa((i*5+2)%59) +
			"w um" + strconv.Itoa(i) + "e" + strconv.Itoa(s)
	}

	var fillerIns []*kb.Instance
	for s := 1; s < scale; s++ {
		li := 0
		for _, tid := range base {
			src := c.Tables[tid]
			if src.LabelCol < 0 {
				continue
			}
			nt := &webtable.Table{
				SourceURL: src.SourceURL,
				Caption:   src.Caption,
				Headers:   append([]string(nil), src.Headers...),
				LabelCol:  src.LabelCol,
				ColKinds:  append(src.ColKinds[:0:0], src.ColKinds...),
				Cells:     make([][]string, len(src.Cells)),
			}
			for r := range src.Cells {
				// Rotate the attribute cells by the copy number: filler
				// rows draw values from the base distribution without
				// being cell-for-cell twins of any base row, so they are
				// genuinely new entities rather than relabeled duplicates
				// that would cluster into the batch's neighborhood.
				row := append([]string(nil), src.Cells[(r+s)%len(src.Cells)]...)
				l := fillerLabel(li)
				li++
				row[src.LabelCol] = l
				nt.Cells[r] = row
				if s == 1 {
					fillerIns = append(fillerIns, &kb.Instance{Class: kb.ClassGFPlayer, Labels: []string{l}})
				}
				fillerIns = append(fillerIns, &kb.Instance{Class: kb.ClassGFPlayer, Labels: []string{kbLabel(s, li-1)}})
			}
			nt.ID = len(c.Tables)
			c.Tables = append(c.Tables, nt)
			warm = append(warm, nt.ID)
		}
	}
	w.KB.AddInstances(fillerIns)

	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	eng := core.NewEngine(cfg, core.Models{})
	eng.WriteBack = false // the filler KB instances stay; epochs must not add more
	cut := len(warm) - 2
	if _, _, err := eng.Ingest(context.Background(), warm[:cut]); err != nil {
		return nil, fmt.Errorf("warm ingest: %v", err)
	}
	if _, _, err := eng.Ingest(context.Background(), warm[cut:]); err != nil {
		return nil, fmt.Errorf("warm ingest: %v", err)
	}
	sf := &scaleFix{eng: eng, batch: batch}
	scaleFixes.Store(scale, sf)
	return sf, nil
}

func ingestScale(b *testing.B, scale int) {
	f := scaleFixture(b, scale)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The fork is the bench harness's isolation, not epoch work: a
		// long-running engine ingests in place.
		b.StopTimer()
		eng := f.eng.Fork()
		b.StartTimer()
		out, _, err := eng.Ingest(context.Background(), f.batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

func IngestScale1x(b *testing.B)  { ingestScale(b, 1) }
func IngestScale10x(b *testing.B) { ingestScale(b, 10) }
