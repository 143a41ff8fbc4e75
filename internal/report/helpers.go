package report

import (
	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/fusion"
	"repro/internal/newdet"
	"repro/internal/webtable"
)

func rowRef(table, row int) webtable.RowRef {
	return webtable.RowRef{Table: table, Row: row}
}

// rowRefs returns the references of rows, in order.
func rowRefs(rows []*cluster.Row) []webtable.RowRef {
	refs := make([]webtable.RowRef, len(rows))
	for i, r := range rows {
		refs[i] = r.Ref
	}
	return refs
}

// entityResults pairs each entity's rows with its detection result.
func entityResults(entities []*fusion.Entity, detections []newdet.Result) []eval.NewEntityResult {
	res := make([]eval.NewEntityResult, len(entities))
	for i, e := range entities {
		res[i] = eval.NewEntityResult{Rows: rowRefs(e.Rows), Result: detections[i]}
	}
	return res
}

// avg returns the mean of a float slice (0 for empty).
func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
