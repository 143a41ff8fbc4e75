package eval

import (
	"sort"

	"repro/internal/gold"
	"repro/internal/newdet"
	"repro/internal/webtable"
)

// DetectionScores holds the new detection evaluation of Table 8: overall
// accuracy plus separate F1 scores for the existing and new classes.
type DetectionScores struct {
	Accuracy   float64
	F1Existing float64
	F1New      float64
}

// EvaluateDetection scores entity classifications against gold clusters.
// results[i] is the detection result for the entity created from gold
// cluster clusterIdx[i]. An existing entity counts as correct only when
// matched to the correct instance.
func EvaluateDetection(g *gold.Standard, clusterIdx []int, results []newdet.Result) DetectionScores {
	var s DetectionScores
	if len(results) == 0 {
		return s
	}
	correct := 0
	tpNew, fpNew, fnNew := 0, 0, 0
	tpEx, fpEx, fnEx := 0, 0, 0
	for i, res := range results {
		gc := g.Clusters[clusterIdx[i]]
		switch {
		case res.IsNew:
			if gc.IsNew {
				correct++
				tpNew++
			} else {
				fpNew++
				fnEx++
			}
		case res.Matched:
			if !gc.IsNew && res.Instance == gc.Instance {
				correct++
				tpEx++
			} else {
				fpEx++
				if gc.IsNew {
					fnNew++
				} else {
					fnEx++
				}
			}
		default: // abstained
			if gc.IsNew {
				fnNew++
			} else {
				fnEx++
			}
		}
	}
	s.Accuracy = float64(correct) / float64(len(results))
	s.F1New = f1(tpNew, fpNew, fnNew)
	s.F1Existing = f1(tpEx, fpEx, fnEx)
	return s
}

// PRF holds precision, recall and F1.
type PRF struct {
	P, R, F1 float64
}

// NewEntityResult pairs one produced entity's rows with its detection.
type NewEntityResult struct {
	Rows   []webtable.RowRef
	Result newdet.Result
}

// EvaluateNewInstancesFound implements the §4.1 evaluation: an entity
// correctly finds a new gold instance when (1) the majority of its rows
// belong to that gold cluster, (2) it contains the majority of the rows of
// that cluster, and (3) it was classified as new. Recall is over new gold
// clusters; precision over entities returned as new.
func EvaluateNewInstancesFound(g *gold.Standard, produced []NewEntityResult) PRF {
	goldRows := make([][]webtable.RowRef, len(g.Clusters))
	for i, c := range g.Clusters {
		goldRows[i] = c.Rows
	}
	prodRows := make([][]webtable.RowRef, len(produced))
	for i, p := range produced {
		prodRows[i] = p.Rows
	}
	mapped := MapClusters(goldRows, prodRows)

	foundNew := make(map[int]bool) // gold cluster indices correctly found
	returnedNew, correctNew := 0, 0
	for i, p := range produced {
		if !p.Result.IsNew {
			continue
		}
		returnedNew++
		gi := mapped[i]
		if gi < 0 || !g.Clusters[gi].IsNew {
			continue
		}
		// Condition 2: the entity contains the majority of the gold
		// cluster's rows.
		rowSet := make(map[webtable.RowRef]bool, len(p.Rows))
		for _, r := range p.Rows {
			rowSet[r] = true
		}
		overlap := 0
		for _, r := range g.Clusters[gi].Rows {
			if rowSet[r] {
				overlap++
			}
		}
		if overlap*2 > len(g.Clusters[gi].Rows) {
			correctNew++
			foundNew[gi] = true
		}
	}
	totalNew := 0
	for _, c := range g.Clusters {
		if c.IsNew {
			totalNew++
		}
	}
	var out PRF
	if returnedNew > 0 {
		out.P = float64(correctNew) / float64(returnedNew)
	}
	if totalNew > 0 {
		out.R = float64(len(foundNew)) / float64(totalNew)
	}
	if out.P+out.R > 0 {
		out.F1 = 2 * out.P * out.R / (out.P + out.R)
	}
	return out
}

// RankedScores holds the §6 ranked evaluation numbers.
type RankedScores struct {
	MAP  float64
	P5   float64
	P20  float64
	CutK int
}

type rankedEntry struct {
	dist float64
	ok   bool
}

// EvaluateRanked ranks entities returned as new by the distance to their
// closest existing instance (higher distance = more confidently new, ranked
// first) and computes MAP with a cut-off at k plus precision at 5 and 20.
// correct[i] reports whether produced entity i is genuinely new.
func EvaluateRanked(produced []NewEntityResult, correct []bool, k int) RankedScores {
	var list []rankedEntry
	for i, p := range produced {
		if !p.Result.IsNew {
			continue
		}
		// BestScore is the similarity to the closest existing instance;
		// distance is its negation.
		list = append(list, rankedEntry{dist: -p.Result.BestScore, ok: correct[i]})
	}
	sort.SliceStable(list, func(i, j int) bool { return list[i].dist > list[j].dist })
	if k > 0 && len(list) > k {
		list = list[:k]
	}
	var out RankedScores
	out.CutK = k
	if len(list) == 0 {
		return out
	}
	// MAP: mean of precision@i at each correct position.
	var apSum float64
	hits := 0
	for i, r := range list {
		if r.ok {
			hits++
			apSum += float64(hits) / float64(i+1)
		}
	}
	if hits > 0 {
		out.MAP = apSum / float64(hits)
	}
	out.P5 = precisionAt(list, 5)
	out.P20 = precisionAt(list, 20)
	return out
}

func precisionAt(list []rankedEntry, k int) float64 {
	if len(list) == 0 {
		return 0
	}
	if k > len(list) {
		k = len(list)
	}
	hits := 0
	for i := 0; i < k; i++ {
		if list[i].ok {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

func f1(tp, fp, fn int) float64 {
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}
