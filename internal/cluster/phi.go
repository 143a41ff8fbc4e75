package cluster

import "math"

// phiModel computes the PHI label-correlation table vectors of §3.2: for
// each label a vector of PHI correlations with co-occurring labels, and for
// each table the average of its row labels' vectors.
//
// Co-occurrence pair counts are maintained incrementally by addTable, so
// finalize costs O(co-occurring pairs) instead of re-deriving every count
// from the table sets — the difference between a model rebuild that stays
// proportional to the batch-touched neighborhood and one that rescans all
// accumulated state each epoch. finalizeReference keeps the original
// derivation as the executable specification.
type phiModel struct {
	// tables maps table ID to its (normalized) row labels.
	tables map[int][]string
	// labelTables maps label to the set of tables containing it.
	labelTables map[string]map[int]bool
	// members lists each table's distinct labels in first-seen order across
	// all addTable calls — the append-only mirror of labelTables, used to
	// extend cooc when a later call adds new labels to a table.
	members map[int][]string
	// cooc[x][y] counts the tables containing both x and y (symmetric; both
	// directions stored so finalize can range one map per label).
	cooc map[string]map[string]int
	// coocStale is set when a table is re-added with different labels: the
	// reference derivation then enumerates candidates from the new table
	// contents while counting against the sticky labelTables sets, a
	// combination the incremental counts cannot mirror. finalize falls back
	// to finalizeReference until the next reset. The ingestion engine
	// re-adds each table with identical labels per pipeline iteration, so
	// the fast path holds there.
	coocStale bool
	nLabels   int
	vectors   map[string]map[string]float64
	// gen counts the addTable calls that changed the statistics. A re-add
	// of a table with identical labels leaves it alone, so finalize, the
	// Refresh of retained rows and every score cached against their
	// vectors (ScoreCache) can tell "the statistics moved" from "the same
	// batch was added again" (the engine re-builds its batch on every
	// pipeline iteration of an epoch).
	gen uint64
	// finalGen is the generation vectors were computed at; refreshGen the
	// generation of the last PhiModel.Refresh.
	finalGen, refreshGen uint64
}

func newPhiModel() *phiModel {
	return &phiModel{
		tables:      make(map[int][]string),
		labelTables: make(map[string]map[int]bool),
		members:     make(map[int][]string),
		cooc:        make(map[string]map[string]int),
	}
}

func (p *phiModel) addTable(id int, labels []string) {
	old, ok := p.tables[id]
	if ok && equalLabels(old, labels) {
		return // every label is already counted for this table
	}
	if ok {
		p.coocStale = true
	}
	p.gen++
	p.tables[id] = labels
	for _, l := range labels {
		if p.labelTables[l] == nil {
			p.labelTables[l] = make(map[int]bool)
		}
		if p.labelTables[l][id] {
			continue
		}
		p.labelTables[l][id] = true
		// First time l appears in this table: it now co-occurs with every
		// label already in the table (including earlier labels of this same
		// call, already appended to members).
		for _, m := range p.members[id] {
			p.bumpCooc(l, m)
			p.bumpCooc(m, l)
		}
		p.members[id] = append(p.members[id], l)
	}
}

func (p *phiModel) bumpCooc(x, y string) {
	if p.cooc[x] == nil {
		p.cooc[x] = make(map[string]int)
	}
	p.cooc[x][y]++
}

func equalLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// finalize computes the per-label PHI vectors:
//
//	PHI(x,y) = (n·n_xy − n_x·n_y) / sqrt(n_x·n_y·(n−n_x)·(n−n_y))
//
// where n is the total number of unique labels, n_xy the co-occurrence of x
// and y in the same table, and n_x the occurrence of label x in a table.
//
// The fast path reads the incrementally maintained pair counts; it is
// float-identical to finalizeReference (both accumulate n_xy as unit
// increments, and the PHI expression is evaluated in the same shape) with
// the same candidate sets whenever tables are only added or re-added with
// identical labels.
//
// It does nothing when the statistics have not changed since the vectors
// were last computed.
func (p *phiModel) finalize() {
	if p.vectors != nil && p.finalGen == p.gen {
		return
	}
	p.finalGen = p.gen
	if p.coocStale {
		p.finalizeReference()
		return
	}
	p.nLabels = len(p.labelTables)
	// Labels are append-only, so the vector maps of the previous finalize
	// can be cleared and refilled in place: re-finalizing over a grown
	// corpus then reuses ~all of its map storage instead of reallocating
	// O(labels) maps per epoch. (Clones start with nil vectors, so no two
	// models ever share these maps.)
	if p.vectors == nil {
		p.vectors = make(map[string]map[string]float64, p.nLabels)
	}
	n := float64(p.nLabels)
	if n == 0 {
		return
	}
	for x, xTables := range p.labelTables {
		vec := p.vectors[x]
		if vec == nil {
			vec = make(map[string]float64, len(p.cooc[x]))
			p.vectors[x] = vec
		} else {
			clear(vec)
		}
		nx := float64(len(xTables))
		for y, cnt := range p.cooc[x] {
			nxy := float64(cnt)
			ny := float64(len(p.labelTables[y]))
			den := math.Sqrt(nx * ny * (n - nx) * (n - ny))
			if den == 0 {
				continue
			}
			phi := (n*nxy - nx*ny) / den
			if phi > 0 {
				vec[y] = phi
			}
		}
	}
}

// finalizeReference derives every co-occurrence count from the table sets
// on each call. It is the executable specification the incremental fast
// path is tested against, and the fallback when a table re-add changed its
// labels (see coocStale).
func (p *phiModel) finalizeReference() {
	p.nLabels = len(p.labelTables)
	p.vectors = make(map[string]map[string]float64, p.nLabels)
	n := float64(p.nLabels)
	if n == 0 {
		return
	}
	// Count co-occurrence via table membership.
	occ := func(l string) float64 { return float64(len(p.labelTables[l])) }
	for x, xTables := range p.labelTables {
		vec := make(map[string]float64)
		// Labels co-occurring with x are those in x's tables.
		seen := make(map[string]bool)
		for t := range xTables {
			for _, y := range p.tables[t] {
				if y == x || seen[y] {
					continue
				}
				seen[y] = true
				nxy := 0.0
				for t2 := range xTables {
					if p.labelTables[y][t2] {
						nxy++
					}
				}
				nx, ny := occ(x), occ(y)
				den := math.Sqrt(nx * ny * (n - nx) * (n - ny))
				if den == 0 {
					continue
				}
				phi := (n*nxy - nx*ny) / den
				if phi > 0 {
					vec[y] = phi
				}
			}
		}
		p.vectors[x] = vec
	}
}

// tableVector averages the PHI vectors of a table's row labels.
func (p *phiModel) tableVector(table int) map[string]float64 {
	labels := p.tables[table]
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, l := range labels {
		for k, v := range p.vectors[l] {
			out[k] += v
		}
	}
	inv := 1 / float64(len(labels))
	for k := range out {
		out[k] *= inv
	}
	return out
}
