package core

import (
	"context"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/gold"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/newdet"
	"repro/internal/par"
	"repro/internal/webtable"
)

// Train learns all pipeline models from the gold standard, using only the
// clusters whose indices appear in trainClusters (the learning folds of the
// cross-validation). Passing all cluster indices trains on the full gold
// standard.
//
// Cancelling ctx abandons training at the next phase boundary (or inside
// the per-table fan-outs) and returns the context's error; the partial
// Models are discarded. Train has no side effects, so a cancelled call can
// simply be retried.
func Train(ctx context.Context, cfg Config, g *gold.Standard, trainClusters []int) (Models, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	trainSet := make(map[int]bool, len(trainClusters))
	for _, i := range trainClusters {
		trainSet[i] = true
	}
	// Training tables: annotated tables whose rows mostly belong to
	// training clusters.
	tableVotes := make(map[int][2]int) // table -> (train rows, total rows)
	for ref, ci := range g.RowCluster {
		v := tableVotes[ref.Table]
		if trainSet[ci] {
			v[0]++
		}
		v[1]++
		tableVotes[ref.Table] = v
	}
	var trainTables []int
	for _, tid := range g.TableIDs {
		v := tableVotes[tid]
		if v[1] > 0 && v[0]*2 >= v[1] {
			trainTables = append(trainTables, tid)
		}
	}
	sort.Ints(trainTables)
	trainTableSet := make(map[int]bool, len(trainTables))
	for _, tid := range trainTables {
		trainTableSet[tid] = true
	}

	// Attribute examples restricted to training tables.
	var attrs []match.Example
	for _, ex := range g.Attributes {
		if trainTableSet[ex.Table.ID] {
			attrs = append(attrs, ex)
		}
	}

	mc := match.NewContext(cfg.KB, cfg.Corpus)
	mc.Class = cfg.Class
	models := Models{}
	cfg.emit(Event{Stage: StageTrain, Detail: "attr-first", Count: len(attrs)})
	models.AttrFirst = match.Learn(mc, match.FirstIterationMatchers(), cfg.Class, attrs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// The first model's mapping of the training tables (the second
	// model's preliminary mapping) and the rows built under it (the
	// clustering and detection training input).
	rows, mapping, err := FirstIterationRows(ctx, cfg, mc, models.AttrFirst, trainTables)
	if err != nil {
		return Models{}, err
	}

	// Iteration outputs for the second-iteration model come from the gold
	// annotations (standing in for a first pipeline run on the learning
	// set): gold correspondences as RowInstance, gold clusters as
	// RowCluster, and the first model's mapping as the preliminary
	// mapping.
	rowInstance := make(map[webtable.RowRef]kb.InstanceID)
	rowCluster := make(map[webtable.RowRef]int)
	for ref, ci := range g.RowCluster {
		if !trainSet[ci] {
			continue
		}
		rowCluster[ref] = ci
		c := g.Clusters[ci]
		if !c.IsNew {
			rowInstance[ref] = c.Instance
		}
	}
	cfg.emit(Event{Stage: StageTrain, Detail: "attr-second", Count: len(attrs)})
	mc2 := mc.WithIteration(mapping, rowCluster, rowInstance)
	models.AttrSecond = match.Learn(mc2, match.AllMatchers(), cfg.Class, attrs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// Row clustering: learn the combined aggregator from gold pair labels.
	pairs := LabeledPairs(g, trainSet, rows, 4000)
	cfg.emit(Event{Stage: StageTrain, Detail: "cluster-scorer", Count: len(pairs)})
	models.ClusterScorer, models.ClusterModel = cluster.LearnScorer(cluster.MetricSet(), pairs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// New detection: entities created from the gold training clusters,
	// labeled with the gold new/existing annotations.
	var train []int
	for ci := range g.Clusters {
		if trainSet[ci] {
			train = append(train, ci)
		}
	}
	entities, err := GoldEntities(ctx, cfg, mapping, g, train, rows)
	if err != nil {
		return Models{}, err
	}
	examples, _ := DetectionExamples(g, train, entities)
	cfg.emit(Event{Stage: StageTrain, Detail: "detector", Count: len(examples)})
	detAgg, _ := newdet.LearnAggregator(cfg.KB, newdet.MetricSet(), examples, cfg.Seed)
	models.DetectorModel = detAgg
	models.Detector = newdet.LearnThresholds(cfg.KB, newdet.MetricSet(), detAgg, examples, cfg.Seed)
	return models, nil
}

// FirstIterationRows maps each table's attributes with the first-iteration
// model and builds the tables' rows under that mapping. Matching fans out
// over cfg.Workers (tables must be duplicate-free, so each worker owns its
// table) and is reduced in table order.
func FirstIterationRows(ctx context.Context, cfg Config, mc *match.Context, model *match.Model, tables []int) ([]*cluster.Row, map[int]map[int]kb.PropertyID, error) {
	matchers := match.FirstIterationMatchers()
	perTable, err := par.MapCtx(ctx, cfg.Workers, tables, func(_, tid int) map[int]kb.PropertyID {
		t := cfg.Corpus.Table(tid)
		match.EnsureDetected(t)
		return match.MatchAttributes(mc, model, matchers, t)
	})
	if err != nil {
		return nil, nil, err
	}
	mapping := make(map[int]map[int]kb.PropertyID, len(tables))
	for i, tid := range tables {
		mapping[tid] = perTable[i]
	}
	builder := &cluster.Builder{KB: cfg.KB, Corpus: cfg.Corpus, Class: cfg.Class, Mapping: mapping}
	return builder.Build(tables), mapping, nil
}

// LabeledPairs generates labeled row pairs from the rows of the gold
// clusters in trainSet (§3.2): positives are intra-cluster pairs; negatives
// are block-sharing pairs from different clusters plus a spread of
// adjacent cross-cluster pairs. Clusters and blocks are visited in sorted
// order, since pair order feeds the learners. maxPairs bounds the output.
func LabeledPairs(g *gold.Standard, trainSet map[int]bool, rows []*cluster.Row, maxPairs int) []cluster.PairExample {
	annotated := rows[:0:0]
	for _, r := range rows {
		if ci, ok := g.RowCluster[r.Ref]; ok && trainSet[ci] {
			annotated = append(annotated, r)
		}
	}
	var pairs []cluster.PairExample
	// Block index to find negative candidates cheaply.
	byBlock := make(map[string][]*cluster.Row)
	for _, r := range annotated {
		for _, b := range r.Blocks {
			byBlock[b] = append(byBlock[b], r)
		}
	}
	seen := make(map[[2]webtable.RowRef]bool)
	addPair := func(a, b *cluster.Row, match bool) {
		ka, kp := a.Ref, b.Ref
		if kp.Table < ka.Table || (kp.Table == ka.Table && kp.Row < ka.Row) {
			ka, kp = kp, ka
		}
		key := [2]webtable.RowRef{ka, kp}
		if seen[key] || ka == kp {
			return
		}
		seen[key] = true
		pairs = append(pairs, cluster.PairExample{A: a, B: b, Match: match})
	}
	// Positives: all intra-cluster pairs.
	byCluster := make(map[int][]*cluster.Row)
	for _, r := range annotated {
		byCluster[g.RowCluster[r.Ref]] = append(byCluster[g.RowCluster[r.Ref]], r)
	}
	cids := make([]int, 0, len(byCluster))
	for ci := range byCluster {
		cids = append(cids, ci)
	}
	sort.Ints(cids)
	for _, ci := range cids {
		members := byCluster[ci]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				addPair(members[i], members[j], true)
			}
		}
	}
	// Negatives: block-sharing cross-cluster pairs (the hard cases).
	blocks := make([]string, 0, len(byBlock))
	for b := range byBlock {
		blocks = append(blocks, b)
	}
	sort.Strings(blocks)
	for _, b := range blocks {
		members := byBlock[b]
		for i := 0; i < len(members) && len(pairs) < maxPairs; i++ {
			for j := i + 1; j < len(members); j++ {
				if g.RowCluster[members[i].Ref] != g.RowCluster[members[j].Ref] {
					addPair(members[i], members[j], false)
				}
			}
		}
		if len(pairs) >= maxPairs {
			break
		}
	}
	// Easy negatives: adjacent rows across the annotated list.
	for i := 0; i+1 < len(annotated) && len(pairs) < maxPairs; i += 2 {
		a, b := annotated[i], annotated[i+1]
		if g.RowCluster[a.Ref] != g.RowCluster[b.Ref] {
			addPair(a, b, false)
		}
	}
	return pairs
}

// GoldRows selects, for each gold cluster in idx, the cluster's rows among
// the built rows, in the cluster's row order. An entry is empty when none
// of the cluster's rows was built.
func GoldRows(g *gold.Standard, idx []int, rows []*cluster.Row) [][]*cluster.Row {
	byRef := make(map[webtable.RowRef]*cluster.Row, len(rows))
	for _, r := range rows {
		byRef[r.Ref] = r
	}
	out := make([][]*cluster.Row, len(idx))
	for i, ci := range idx {
		for _, ref := range g.Clusters[ci].Rows {
			if r, ok := byRef[ref]; ok {
				out[i] = append(out[i], r)
			}
		}
	}
	return out
}

// GoldEntities fuses one entity per gold cluster in idx from its built
// rows (see GoldRows) under the given mapping — the §3.4 setting: "before
// we run new detection on those clusters, we create entities from them".
// The result is indexed by cluster and nil for clusters outside idx or
// without a built row. VOTING scoring keeps the sources read-only, so
// creation fans out over cfg.Workers.
func GoldEntities(ctx context.Context, cfg Config, mapping map[int]map[int]kb.PropertyID, g *gold.Standard, idx []int, rows []*cluster.Row) ([]*fusion.Entity, error) {
	src := &fusion.Sources{
		KB: cfg.KB, Corpus: cfg.Corpus, Class: cfg.Class,
		Mapping:    mapping,
		Thresholds: dtype.DefaultThresholds(),
		Scoring:    fusion.Voting,
	}
	created, err := par.MapCtx(ctx, cfg.Workers, GoldRows(g, idx, rows), func(_ int, members []*cluster.Row) *fusion.Entity {
		if len(members) == 0 {
			return nil
		}
		return fusion.Create(src, members)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*fusion.Entity, len(g.Clusters))
	for i, ci := range idx {
		out[ci] = created[i]
	}
	return out, nil
}

// DetectionExamples labels the entities of the gold clusters in idx
// (indexed by cluster, as GoldEntities returns them) with the clusters'
// new/existing annotations, in idx order. Clusters without an entity are
// skipped; kept lists the clusters that yielded an example.
func DetectionExamples(g *gold.Standard, idx []int, entities []*fusion.Entity) (examples []newdet.Example, kept []int) {
	for _, ci := range idx {
		if e := entities[ci]; e != nil {
			c := g.Clusters[ci]
			examples = append(examples, newdet.Example{Entity: e, IsNew: c.IsNew, Instance: c.Instance})
			kept = append(kept, ci)
		}
	}
	return examples, kept
}
