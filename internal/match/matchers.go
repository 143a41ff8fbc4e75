package match

import (
	"math"
	"sort"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/strsim"
	"repro/internal/webtable"
)

// Matcher scores how likely a table column matches a candidate KB property,
// returning a value in [0, 1].
type Matcher interface {
	Name() string
	Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64
}

// AllMatchers returns the five matchers of the paper in a fixed order:
// KB-Overlap, KB-Label, KB-Duplicate, WT-Label, WT-Duplicate.
func AllMatchers() []Matcher {
	return []Matcher{kbOverlap{}, kbLabel{}, kbDuplicate{}, wtLabel{}, wtDuplicate{}}
}

// FirstIterationMatchers returns the matchers usable before any pipeline
// output exists (the duplicate-based ones require output from the other
// pipeline components and are excluded in the first iteration).
func FirstIterationMatchers() []Matcher {
	return []Matcher{kbOverlap{}, kbLabel{}}
}

// ---------------------------------------------------------------------------
// KB-Overlap: proportion of column values that generally fit the candidate
// property in the knowledge base.

// propProfile summarizes the value distribution of one property over all KB
// instances of a class: a normalized-string set for string-like kinds, a
// numeric range for quantities, a year range for dates, and an integer set
// for nominal integers.
type propProfile struct {
	kind       dtype.Kind
	strs       map[string]bool
	ints       map[int]bool
	minQ, maxQ float64
	minY, maxY int
	n          int
}

func (c *Context) profile(class kb.ClassID, pid kb.PropertyID) *propProfile {
	cc := c.caches
	// Fast path: cache hit under the shared lock.
	cc.mu.RLock()
	if p, ok := cc.kbProfiles[class][pid]; ok {
		cc.mu.RUnlock()
		return p
	}
	cc.mu.RUnlock()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.kbProfiles == nil {
		cc.kbProfiles = make(map[kb.ClassID]map[kb.PropertyID]*propProfile)
	}
	if byProp, ok := cc.kbProfiles[class]; ok {
		if p, ok := byProp[pid]; ok {
			return p
		}
	} else {
		cc.kbProfiles[class] = make(map[kb.PropertyID]*propProfile)
	}
	prop, ok := c.KB.Property(class, pid)
	if !ok {
		return nil
	}
	p := &propProfile{
		kind: prop.Kind,
		strs: make(map[string]bool),
		ints: make(map[int]bool),
		minQ: math.Inf(1), maxQ: math.Inf(-1),
		minY: 1 << 30, maxY: -(1 << 30),
	}
	c.KB.ForEachFactOfClass(class, pid, func(_ kb.InstanceID, v dtype.Value) {
		p.n++
		switch v.Kind {
		case dtype.Quantity:
			p.minQ = math.Min(p.minQ, v.Num)
			p.maxQ = math.Max(p.maxQ, v.Num)
		case dtype.NominalInteger:
			p.ints[int(v.Num)] = true
		case dtype.Date:
			if v.Year < p.minY {
				p.minY = v.Year
			}
			if v.Year > p.maxY {
				p.maxY = v.Year
			}
		default:
			p.strs[v.Str] = true
		}
	})
	cc.kbProfiles[class][pid] = p
	return p
}

// fits reports whether a parsed cell value is plausible for the profile.
func (p *propProfile) fits(v dtype.Value) bool {
	switch p.kind {
	case dtype.Quantity:
		if p.n == 0 {
			return false
		}
		span := p.maxQ - p.minQ
		slack := 0.1 * (span + 1)
		return v.Num >= p.minQ-slack && v.Num <= p.maxQ+slack
	case dtype.NominalInteger:
		return p.ints[int(v.Num)]
	case dtype.Date:
		return p.n > 0 && v.Year >= p.minY-2 && v.Year <= p.maxY+2
	default:
		return p.strs[v.Str]
	}
}

type kbOverlap struct{}

func (kbOverlap) Name() string { return "KB-Overlap" }

func (kbOverlap) Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64 {
	p := ctx.profile(ctx.Class, prop.ID)
	if p == nil || p.n == 0 {
		return 0
	}
	total, fit := 0, 0
	for r := 0; r < t.NumRows(); r++ {
		v, ok := dtype.Parse(t.Cell(r, col), prop.Kind)
		if !ok {
			continue
		}
		total++
		if p.fits(v) {
			fit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(fit) / float64(total)
}

// ---------------------------------------------------------------------------
// KB-Label: header label vs property label similarity.

type kbLabel struct{}

func (kbLabel) Name() string { return "KB-Label" }

func (kbLabel) Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64 {
	header := t.Headers[col]
	if header == "" {
		return 0
	}
	// Headers and property labels recur across tables and candidates;
	// prepare each once per process instead of re-tokenizing per pair.
	h := strsim.PrepareCached(header)
	best := h.MongeElkanSym(strsim.PrepareCached(prop.Label))
	for _, alt := range prop.AltLabels {
		if s := h.MongeElkanSym(strsim.PrepareCached(alt)); s > best {
			best = s
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// KB-Duplicate: proportion of cells equal to the fact of the candidate
// property for the instance the row was matched to (correspondences from
// the new detection component of the previous iteration).

type kbDuplicate struct{}

func (kbDuplicate) Name() string { return "KB-Duplicate" }

func (kbDuplicate) Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64 {
	if ctx.RowInstance == nil {
		return 0
	}
	total, equal := 0, 0
	for r := 0; r < t.NumRows(); r++ {
		iid, ok := ctx.RowInstance[webtable.RowRef{Table: t.ID, Row: r}]
		if !ok {
			continue
		}
		fact, ok := ctx.KB.Fact(iid, prop.ID)
		if !ok {
			continue
		}
		v, ok := dtype.Parse(t.Cell(r, col), prop.Kind)
		if !ok {
			continue
		}
		total++
		if ctx.Thresholds.Equal(v, fact) {
			equal++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(equal) / float64(total)
}

// ---------------------------------------------------------------------------
// WT-Label: label-to-property likelihood derived from the preliminary
// mapping over the whole corpus: how often a given (normalized) header
// label was preliminarily mapped to the candidate property.

type wtLabel struct{}

func (wtLabel) Name() string { return "WT-Label" }

func (wtLabel) Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64 {
	stats := ctx.wtLabelStats()
	if stats == nil {
		return 0
	}
	header := strsim.Normalize(t.Headers[col])
	if header == "" {
		return 0
	}
	byLabel, ok := stats[prop.ID]
	if !ok {
		return 0
	}
	return byLabel[header]
}

// wtLabelStats builds, per property, the conditional likelihood that a
// header label maps to that property, from the preliminary mapping.
func (c *Context) wtLabelStats() map[kb.PropertyID]map[string]float64 {
	if c.Prelim == nil {
		return nil
	}
	cc := c.caches
	cc.mu.RLock()
	if cc.wtDone {
		stats := cc.wtLabels
		cc.mu.RUnlock()
		return stats
	}
	cc.mu.RUnlock()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.wtDone {
		return cc.wtLabels
	}
	// count[label][prop] = number of columns with that header mapped to prop.
	count := make(map[string]map[kb.PropertyID]int)
	totals := make(map[string]int)
	for ref, pid := range c.Prelim {
		tbl := c.Corpus.Table(ref.Table)
		if tbl == nil || ref.Col >= tbl.NumCols() {
			continue
		}
		label := strsim.Normalize(tbl.Headers[ref.Col])
		if label == "" {
			continue
		}
		if count[label] == nil {
			count[label] = make(map[kb.PropertyID]int)
		}
		count[label][pid]++
		totals[label]++
	}
	stats := make(map[kb.PropertyID]map[string]float64)
	for label, byProp := range count {
		for pid, n := range byProp {
			if stats[pid] == nil {
				stats[pid] = make(map[string]float64)
			}
			stats[pid][label] = float64(n) / float64(totals[label])
		}
	}
	cc.wtLabels = stats
	cc.wtDone = true
	return stats
}

// ---------------------------------------------------------------------------
// WT-Duplicate: proportion of values in the attribute for which an equal
// value exists elsewhere in the corpus, matched (via the preliminary
// mapping) to the same instance — where "same instance" is approximated by
// the row clusters of the previous clustering run.

type wtDuplicate struct{}

func (wtDuplicate) Name() string { return "WT-Duplicate" }

func (wtDuplicate) Score(ctx *Context, t *webtable.Table, col int, prop kb.Property) float64 {
	if ctx.RowCluster == nil || ctx.Prelim == nil {
		return 0
	}
	pool := ctx.clusterValues()
	total, dup := 0, 0
	for r := 0; r < t.NumRows(); r++ {
		ref := webtable.RowRef{Table: t.ID, Row: r}
		cluster, ok := ctx.RowCluster[ref]
		if !ok {
			continue
		}
		v, ok := dtype.Parse(t.Cell(r, col), prop.Kind)
		if !ok {
			continue
		}
		total++
		for _, other := range pool[clusterPropKey{cluster, prop.ID}] {
			if other.table == t.ID {
				continue // need independent support from another table
			}
			if ctx.Thresholds.Equal(v, other.v) {
				dup++
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dup) / float64(total)
}

// clusterValues collects, per (cluster, property), the values of all cells
// whose column is preliminarily mapped to that property, together with the
// table each value came from.
func (c *Context) clusterValues() map[clusterPropKey][]tableValue {
	cc := c.caches
	cc.mu.RLock()
	if cc.clusterVal != nil {
		pool := cc.clusterVal
		cc.mu.RUnlock()
		return pool
	}
	cc.mu.RUnlock()
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.clusterVal != nil {
		return cc.clusterVal
	}
	// Iterate the preliminary mapping in sorted column order so each
	// pool's value list comes out the same every run (several columns can
	// feed one (cluster, property) key).
	refs := make([]ColRef, 0, len(c.Prelim))
	for ref := range c.Prelim {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Table != refs[j].Table {
			return refs[i].Table < refs[j].Table
		}
		return refs[i].Col < refs[j].Col
	})
	pool := make(map[clusterPropKey][]tableValue)
	for _, ref := range refs {
		pid := c.Prelim[ref]
		tbl := c.Corpus.Table(ref.Table)
		if tbl == nil {
			continue
		}
		prop, ok := c.KB.Property(c.Class, pid)
		if !ok {
			continue
		}
		for r := 0; r < tbl.NumRows(); r++ {
			cluster, ok := c.RowCluster[webtable.RowRef{Table: tbl.ID, Row: r}]
			if !ok {
				continue
			}
			if v, ok := dtype.Parse(tbl.Cell(r, ref.Col), prop.Kind); ok {
				key := clusterPropKey{cluster, pid}
				pool[key] = append(pool[key], tableValue{v: v, table: tbl.ID})
			}
		}
	}
	cc.clusterVal = pool
	return pool
}
