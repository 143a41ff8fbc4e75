// Songs: the hardest class of the paper — homonyms and cover versions —
// on the public ltee API.
//
// Song titles collide constantly: different songs by different artists
// share a name, and cover versions even share runtime and writer. The
// paper finds Song is where row clustering and new detection lose the most
// performance (Table 9: F1 0.72 vs 0.87/0.80 for the other classes).
//
// This example builds a small world with an elevated homonym rate, then
// shows (1) how the ATTRIBUTE and BOW metrics pull apart same-title rows
// that labels alone cannot, and (2) the clustering quality gap between a
// label-only scorer and the full metric set.
//
// Run with:
//
//	go run ./examples/songs
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/ltee/agg"
	"repro/ltee/cluster"
	"repro/ltee/eval"
	"repro/ltee/kb"
	"repro/ltee/scenario"
	"repro/ltee/webtable"
)

func main() {
	s := scenario.NewSuite(scenario.Options{WorldScale: 0.25, CorpusScale: 0.15, Seed: 7})
	class := kb.ClassSong
	g := s.Golds[class]

	// Show the homonym problem in the generated world.
	byName := make(map[string][]string)
	for _, e := range s.World.ByClass[class] {
		artist := e.Truth["dbo:musicalArtist"].Str
		byName[e.Name] = append(byName[e.Name], artist)
	}
	fmt.Println("homonym titles in the world (same title, different artists):")
	// Sorted order so the sample is the same every run (map iteration
	// order used to make this listing nondeterministic).
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	shown := 0
	for _, name := range names {
		if artists := byName[name]; len(artists) > 1 && shown < 5 {
			fmt.Printf("  %-20s by %v\n", name, artists)
			shown++
		}
	}

	// Rows of the gold tables, prepared with the learned first-iteration
	// mapping (the same rows every clustering study in the suite uses).
	ctx := context.Background()
	models, err := s.ModelsFor(ctx, class)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := s.ClusterRows(ctx, class)
	if err != nil {
		log.Fatal(err)
	}

	goldRows := make([][]webtable.RowRef, len(g.Clusters))
	for i, c := range g.Clusters {
		goldRows[i] = c.Rows
	}

	// Label-only clustering vs the full metric set.
	labelOnly := &cluster.Scorer{
		Metrics: cluster.MetricPrefix(1),
		Agg:     &agg.WeightedAverage{Weights: []float64{1}, Threshold: 0.85},
	}
	evalOf := func(sc *cluster.Scorer) eval.ClusterScores {
		cl, err := cluster.ClusterCtx(ctx, rows, sc, cluster.NewOptions())
		if err != nil {
			log.Fatal(err)
		}
		var produced [][]webtable.RowRef
		for _, members := range cl.Clusters {
			refs := make([]webtable.RowRef, len(members))
			for i, r := range members {
				refs[i] = r.Ref
			}
			produced = append(produced, refs)
		}
		return eval.EvaluateClustering(goldRows, produced)
	}
	lab := evalOf(labelOnly)
	full := evalOf(models.ClusterScorer)
	fmt.Printf("\nclustering songs with labels only:  PCP=%.3f AR=%.3f F1=%.3f\n",
		lab.PCP, lab.AR, lab.F1)
	fmt.Printf("clustering songs with all metrics:  PCP=%.3f AR=%.3f F1=%.3f\n",
		full.PCP, full.AR, full.F1)
	fmt.Println("\nlabels alone merge homonym songs into one cluster; the ATTRIBUTE")
	fmt.Println("and BOW metrics use artist/runtime/album values to keep them apart.")
}
