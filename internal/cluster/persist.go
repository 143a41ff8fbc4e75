package cluster

import (
	"maps"
	"slices"

	"repro/internal/index"
	"repro/internal/strsim"
)

// BlockIndex assigns label blocks to rows. It persists across Build calls:
// the incremental ingestion engine keeps one per class so a batch's rows
// block against every label seen in earlier batches too — a fuzzy label
// variant arriving later still lands in the block of the original label
// and gets compared with its retained cluster. A fresh BlockIndex used for
// a single Build reproduces the one-shot blocking exactly.
//
// Retrieval is the label index's sub-linear Retrieve (see internal/lsh,
// "Hybrid retrieval"), which re-scores its candidates with the exact
// TF-IDF floats, so the top-k blocks equal an exact Search's whenever the
// candidates cover its top hits (the equivalence tests assert they do).
type BlockIndex struct {
	// ix holds one document per distinct label, with the label's
	// position in labels as its ID.
	ix       *index.Index
	labelDoc map[string]int
	// labels lists the normalized labels in doc-ID order, mapping scored
	// docs back to block labels.
	labels []string
}

// NewBlockIndex returns an empty block index.
func NewBlockIndex() *BlockIndex {
	return &BlockIndex{
		ix:       index.New(),
		labelDoc: make(map[string]int),
	}
}

// Assign indexes the rows' labels (skipping those already present) and
// assigns each row the blocks of its top-k most similar labels over
// everything indexed so far. A row always belongs at least to its own
// label block.
func (bi *BlockIndex) Assign(rows []*Row, k int) {
	for _, r := range rows {
		if _, ok := bi.labelDoc[r.NormLabel]; !ok {
			doc := len(bi.labels)
			bi.labelDoc[r.NormLabel] = doc
			bi.labels = append(bi.labels, r.NormLabel)
			bi.ix.Add(doc, r.NormLabel)
		}
	}
	// The result cache lives per call: a later Assign sees more labels and
	// must not serve block lists computed against fewer.
	cache := make(map[string][]string)
	for _, r := range rows {
		if blocks, ok := cache[r.NormLabel]; ok {
			r.Blocks = blocks
			continue
		}
		blocks := bi.topLabels(r.NormLabel, k)
		found := false
		for _, bl := range blocks {
			if bl == r.NormLabel {
				found = true
				break
			}
		}
		if !found {
			blocks = append(blocks, r.NormLabel)
		}
		cache[r.NormLabel] = blocks
		r.Blocks = blocks
	}
}

// blockScoreFloor drops block labels scoring below this fraction of the
// query's best hit. TF-IDF scores are length-normalized, so the ratio
// separates informative blocks from incidental ones: a fuzzy variant or a
// two-token homonym sharing a name token keeps roughly half the query's
// own score, while a longer label sharing one common token keeps a
// quarter or less. Without the floor, top-k always returns k blocks once
// the corpus is large enough, and every such weak block becomes a
// cluster-pair edge the KLj refinement must evaluate — per-epoch
// refinement cost then grows with the label corpus instead of the batch's
// true neighborhood.
const blockScoreFloor = 0.35

// topLabels returns the distinct labels of the top-k retrieved documents
// for the query that score at least blockScoreFloor of the best hit.
func (bi *BlockIndex) topLabels(norm string, k int) []string {
	hits := bi.ix.Retrieve(norm, k)
	var out []string
	for _, h := range hits {
		if h.Score < hits[0].Score*blockScoreFloor {
			break // hits are sorted by score; everything after is weaker
		}
		// Each doc carries exactly one label here, so top-k docs map to
		// (at most) k distinct labels with no dedup needed.
		out = append(out, bi.labels[h.Doc])
	}
	return out
}

// size returns the number of labels indexed. The index only grows and
// block lists are a function of what it holds, so an unchanged size means
// unchanged blocks.
func (bi *BlockIndex) size() int { return len(bi.labels) }

// Clone returns an independent copy (engine forks must not cross-pollinate
// each other's label universes).
func (bi *BlockIndex) Clone() *BlockIndex {
	return &BlockIndex{
		ix:       bi.ix.Clone(),
		labelDoc: maps.Clone(bi.labelDoc),
		labels:   slices.Clone(bi.labels),
	}
}

// PhiModel is a corpus-wide PHI label-correlation model that persists
// across Build calls. The one-shot pipeline computes PHI statistics over
// the tables of a single Build; under incremental ingestion that would
// leave each epoch's rows carrying vectors from incompatible batch-local
// probability spaces. The engine instead keeps one PhiModel per class:
// every Build extends it with the batch's tables and re-finalizes over all
// tables seen so far, and Refresh then realigns the retained rows'
// TableVec to the same model, so cross-epoch pair scores always compare
// vectors from one distribution. Both steps are skipped while the
// statistics stand: a Build that only re-adds tables with their labels
// leaves the model's generation, and so every vector, unchanged.
type PhiModel struct {
	m *phiModel
}

// NewPhiModel returns an empty model.
func NewPhiModel() *PhiModel {
	return &PhiModel{m: newPhiModel()}
}

// Clone returns an independent copy of the accumulated statistics (label
// slices are shared; they are immutable once added).
func (pm *PhiModel) Clone() *PhiModel {
	nc := newPhiModel()
	for id, labels := range pm.m.tables {
		nc.tables[id] = labels
	}
	for l, ts := range pm.m.labelTables {
		set := make(map[int]bool, len(ts))
		for t := range ts {
			set[t] = true
		}
		nc.labelTables[l] = set
	}
	for x, ys := range pm.m.cooc {
		m := make(map[string]int, len(ys))
		for y, cnt := range ys {
			m[y] = cnt
		}
		nc.cooc[x] = m
	}
	// Vectors are not copied: the clone's next finalize recomputes them at
	// the same generation, and the rows refreshed at it stay valid.
	nc.gen, nc.refreshGen = pm.m.gen, pm.m.refreshGen
	return &PhiModel{m: nc}
}

// Refresh recomputes the TableVec of the given rows from the current
// model. It requires a preceding Build (which finalizes the model); the
// engine calls it for the retained rows after each batch's Build.
//
// It does nothing when the generation has not moved since the last
// Refresh. That is exact for the engine, which always refreshes its
// retained rows: they were refreshed at the current generation, and every
// other row got its vector from a Build at that generation.
func (pm *PhiModel) Refresh(rows []*Row) {
	if pm.m.refreshGen == pm.m.gen {
		return
	}
	pm.m.refreshGen = pm.m.gen
	assignVectors(pm.m, rows)
}

// generation returns the model's statistics generation (0 for nil).
func (pm *PhiModel) generation() uint64 {
	if pm == nil {
		return 0
	}
	return pm.m.gen
}

// assignVectors computes one sorted PHI vector per distinct table and
// shares it across the table's rows.
func assignVectors(phi *phiModel, rows []*Row) {
	vecOf := make(map[int]strsim.SparseVec)
	for _, r := range rows {
		v, ok := vecOf[r.Ref.Table]
		if !ok {
			v = strsim.ToSparse(phi.tableVector(r.Ref.Table))
			vecOf[r.Ref.Table] = v
		}
		r.TableVec = v
	}
}

// compact drops clusters emptied by KLj merges/moves and rebuilds the
// block bookkeeping from live membership, so a long-lived incremental
// clusterer's state tracks its live rows instead of its whole history.
// Relative cluster order is preserved, keeping ID-ordered tie-breaks and
// the materialized Result identical to the uncompacted state. The no-op
// memos are carried across with their keys remapped to the compacted IDs
// (remapping is monotonic, so pair key ordering is preserved).
//
// It is a no-op while no KLj mutation happened since the last compact:
// greedy additions never empty a cluster and extend the block bookkeeping
// incrementally, so there is nothing to rebuild.
func (c *clusterer) compact() {
	if !c.moved {
		return
	}
	c.moved = false
	remap := make([]int, len(c.clusters))
	n := 0
	for ci, cl := range c.clusters {
		if len(cl.rows) == 0 {
			remap[ci] = -1
			continue
		}
		remap[ci] = n
		n++
	}
	live := c.clusters[:0]
	liveVer := c.ver[:0]
	liveLast := make([]uint64, 0, len(c.clusters))
	for ci, cl := range c.clusters {
		if remap[ci] < 0 {
			continue
		}
		live = append(live, cl)
		liveVer = append(liveVer, c.ver[ci])
		// 0 never matches a real version (verTick starts at 1), so
		// clusters without a snapshot stay dirty after the remap.
		if ci < len(c.lastKljVer) {
			liveLast = append(liveLast, c.lastKljVer[ci])
		} else {
			liveLast = append(liveLast, 0)
		}
	}
	// Trim the tail so dropped clusterStates are not retained by the
	// backing array.
	tail := c.clusters[len(live):]
	for i := range tail {
		tail[i] = nil
	}
	c.clusters = live
	c.ver = liveVer
	c.lastKljVer = liveLast
	pairNoop := make(map[[2]int][2]uint64, len(c.pairNoop))
	for p, v := range c.pairNoop {
		a, b := remap[p[0]], remap[p[1]]
		if a < 0 || b < 0 {
			continue
		}
		pairNoop[[2]int{a, b}] = v
	}
	c.pairNoop = pairNoop
	splitNoop := make(map[int]uint64, len(c.splitNoop))
	for ci, v := range c.splitNoop {
		if remap[ci] >= 0 {
			splitNoop[remap[ci]] = v
		}
	}
	c.splitNoop = splitNoop
	c.blockIndex = make(map[string]map[int]bool, len(c.blockIndex))
	for ci, cl := range c.clusters {
		cl.blocks = make(map[string]bool, len(cl.blocks))
		for _, r := range cl.rows {
			for _, b := range r.Blocks {
				cl.blocks[b] = true
				if c.blockIndex[b] == nil {
					c.blockIndex[b] = make(map[int]bool)
				}
				c.blockIndex[b][ci] = true
			}
		}
	}
}
