// Package report regenerates every table of the paper's evaluation
// (Tables 1-12 plus the §6 ranked evaluation) over the synthetic world.
// The same harness backs the ltee CLI (cmd/ltee) and the repository-level
// benchmarks (bench_test.go); testdata/tables.golden pins every rendered
// table at the test suite's scale (TestPaperTablesGolden).
package report

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gold"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/par"
	"repro/internal/webtable"
	"repro/internal/world"
)

// Suite bundles the synthetic world, corpus and per-class gold standards,
// caching trained models and pipeline runs across tables.
//
// Every cache is a per-class memoized lazy cell: the first caller of a
// (cache, class) pair computes it exactly once while concurrent callers
// for the same class wait and share the result, and independent classes
// train and run concurrently. This replaces the coarse suite-wide mutex
// that used to serialize all training; all table generators may therefore
// run in parallel (cmd/ltee -workers drives them that way). Only successes
// are memoized: a computation that fails — in practice, context
// cancellation — reports its error to the observing caller and leaves the
// cell empty for the next caller to retry.
type Suite struct {
	World  *world.World
	Corpus *webtable.Corpus
	Golds  map[kb.ClassID]*gold.Standard
	Seed   int64
	// Workers bounds the worker pools of the suite and its pipeline runs
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int

	prepared     par.ErrCell[struct{}]
	models       par.ErrGroup[kb.ClassID, core.Models]  // trained on the full gold standard
	byClass      par.ErrCell[map[kb.ClassID][]int]      // table-to-class matching result
	fullRuns     par.ErrGroup[kb.ClassID, *core.Output] // full-corpus pipeline runs
	goldRuns     par.ErrGroup[kb.ClassID, *core.Output] // gold-tables pipeline runs
	rowsOf       par.ErrGroup[kb.ClassID, classRows]    // prepared rows + first-iteration mapping
	foldRunCache par.ErrGroup[kb.ClassID, []*foldRun]   // per-fold models and entities
}

// classRows carries the memoized output of clusterRows for one class.
type classRows struct {
	rows    []*cluster.Row
	mapping map[int]map[int]kb.PropertyID
}

// Options sizes the suite.
type Options struct {
	// WorldScale scales entity counts (1.0 ≈ a thousand entities).
	WorldScale float64
	// CorpusScale scales table counts (1.0 ≈ 800 tables).
	CorpusScale float64
	// Seed drives generation and learning.
	Seed int64
	// Workers bounds the suite's worker pools (0 = GOMAXPROCS, 1 = serial).
	Workers int
}

// DefaultOptions returns the laptop-scale defaults used by the CLI and the
// benchmarks.
func DefaultOptions() Options {
	return Options{WorldScale: 0.35, CorpusScale: 0.22, Seed: 1}
}

// NewSuite generates the world, corpus and gold standards.
func NewSuite(opts Options) *Suite {
	if opts.WorldScale <= 0 {
		opts.WorldScale = 0.35
	}
	if opts.CorpusScale <= 0 {
		opts.CorpusScale = 0.22
	}
	wcfg := world.DefaultConfig(opts.WorldScale)
	wcfg.Seed = opts.Seed
	w := world.Generate(wcfg)
	ccfg := webtable.DefaultSynthConfig(opts.CorpusScale)
	ccfg.Seed = opts.Seed + 100
	corpus := webtable.Synthesize(w, ccfg)
	s := &Suite{
		World:   w,
		Corpus:  corpus,
		Golds:   make(map[kb.ClassID]*gold.Standard),
		Seed:    opts.Seed,
		Workers: opts.Workers,
	}
	for _, class := range kb.EvalClasses() {
		s.Golds[class] = gold.FromWorld(w, corpus, class, 0)
	}
	return s
}

// prepare runs column-kind and label-attribute detection over the whole
// corpus once (parallel over tables, each table owned by one worker).
// Afterwards the pipeline's per-table detection guards never write, so
// per-class work can safely touch the shared corpus concurrently. A
// cancelled preparation is not memoized: the next caller retries.
func (s *Suite) prepare(ctx context.Context) error {
	_, err := s.prepared.Get(func() (struct{}, error) {
		err := par.ForEachCtx(ctx, s.Workers, len(s.Corpus.Tables), func(i int) {
			t := s.Corpus.Tables[i]
			match.EnsureDetected(t)
		})
		return struct{}{}, err
	})
	return err
}

// Config returns the default pipeline configuration for a class.
func (s *Suite) Config(class kb.ClassID) core.Config {
	cfg := core.DefaultConfig(s.World.KB, s.Corpus, class)
	cfg.Seed = s.Seed
	cfg.Workers = s.Workers
	cfg.ClusterOpts.Workers = s.Workers
	return cfg
}

// clusterOptions returns the default clustering options bounded by the
// suite's worker pool (so workers=1 really is fully serial).
func (s *Suite) clusterOptions() cluster.Options {
	opts := cluster.NewOptions()
	opts.Workers = s.Workers
	return opts
}

// ModelsFor trains (once) the pipeline models of a class on the full gold
// standard. Distinct classes train concurrently; a failed (for instance
// cancelled) training is not memoized, so a later caller retries.
func (s *Suite) ModelsFor(ctx context.Context, class kb.ClassID) (core.Models, error) {
	return s.models.Get(class, func() (core.Models, error) {
		if err := s.prepare(ctx); err != nil {
			return core.Models{}, err
		}
		g := s.Golds[class]
		return core.Train(ctx, s.Config(class), g, allClusters(g))
	})
}

// allClusters lists every cluster index of a gold standard.
func allClusters(g *gold.Standard) []int {
	all := make([]int, len(g.Clusters))
	for i := range all {
		all[i] = i
	}
	return all
}

// Folds returns the 3-fold split of a class's gold clusters.
func (s *Suite) Folds(class kb.ClassID) [][]int {
	return s.Golds[class].Folds(3, s.Seed)
}

// TablesByClass runs (and caches) table-to-class matching over the corpus.
func (s *Suite) TablesByClass(ctx context.Context) (map[kb.ClassID][]int, error) {
	return s.byClass.Get(func() (map[kb.ClassID][]int, error) {
		if err := s.prepare(ctx); err != nil {
			return nil, err
		}
		return core.ClassifyTables(ctx, s.World.KB, s.Corpus, 0.3, s.Workers)
	})
}

// GoldRun runs (and caches) the full two-iteration pipeline over the gold
// tables of a class with models trained on the full gold standard.
func (s *Suite) GoldRun(ctx context.Context, class kb.ClassID) (*core.Output, error) {
	return s.goldRuns.Get(class, func() (*core.Output, error) {
		models, err := s.ModelsFor(ctx, class)
		if err != nil {
			return nil, err
		}
		p := core.New(s.Config(class), models)
		return p.Run(ctx, s.Golds[class].TableIDs)
	})
}

// FullRun runs (and caches) the pipeline over every corpus table matched to
// the class (the §5 large-scale profiling).
func (s *Suite) FullRun(ctx context.Context, class kb.ClassID) (*core.Output, error) {
	return s.fullRuns.Get(class, func() (*core.Output, error) {
		byClass, err := s.TablesByClass(ctx)
		if err != nil {
			return nil, err
		}
		models, err := s.ModelsFor(ctx, class)
		if err != nil {
			return nil, err
		}
		p := core.New(s.Config(class), models)
		return p.Run(ctx, byClass[class])
	})
}
