package core

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dtype"
	"repro/internal/kb"
	"repro/internal/webtable"
	"repro/internal/world"
)

var updateDigest = flag.Bool("update", false, "rewrite testdata/engine_digest.golden from the current source")

// digestFile is the checked-in golden digest of the engine's output.
const digestFile = "testdata/engine_digest.golden"

// TestEngineDigestGolden pins what the incremental engine produces, byte
// for byte: on one small world, an untrained engine per evaluation class
// ingests the class's tables in 4-table batches with write-back, one class
// after another, and the digest lists every epoch's counts plus the final
// entities (labels and facts), their detections and the row-to-instance
// map. KB instances are named by label (and, for write-backs, the epoch
// that wrote them), never by InstanceID, which depends on the order in
// which classes write back. An intended output change regenerates the
// golden with
//
//	go test ./internal/core -run TestEngineDigestGolden -update
//
// and the diff is reviewed like any other.
func TestEngineDigestGolden(t *testing.T) {
	w := world.Generate(world.DefaultConfig(0.12))
	corpus := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.07))
	byClass := classify(w.KB, corpus)
	var b strings.Builder
	for _, class := range kb.EvalClasses() {
		eng := NewEngine(DefaultConfig(w.KB, corpus, class), Models{})
		tids := byClass[class]
		fmt.Fprintf(&b, "# %s: %d tables\n", class, len(tids))
		for lo := 0; lo < len(tids); lo += 4 {
			_, st, err := eng.Ingest(t.Context(), tids[lo:min(lo+4, len(tids))])
			if err != nil {
				t.Fatalf("%s: ingest: %v", class, err)
			}
			fmt.Fprintf(&b, "epoch %d: tables %d/%d entities %d new %d matched %d written %d iterations %d\n",
				st.Epoch, st.BatchTables, st.TotalTables, st.Entities, st.NewEntities, st.Matched, st.WrittenBack, st.Iterations)
		}
		writeDigest(&b, w.KB, eng.Last())
	}
	got := b.String()
	if *updateDigest {
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", digestFile)
		return
	}
	want, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("engine output differs from %s; if the change is intended, regenerate with\n  go test ./internal/core -run TestEngineDigestGolden -update\n\n%s",
			digestFile, digestDiff(string(want), got))
	}
}

// writeDigest renders one class's final output: one line per entity in
// output order (labels, facts by property, detection), then the
// row-to-instance map grouped by instance.
func writeDigest(b *strings.Builder, k *kb.KB, out *Output) {
	for i, ent := range out.Entities {
		fmt.Fprintf(b, "entity %d %q", i, ent.Labels)
		for _, pid := range kb.SortedPropertyIDs(ent.Facts) {
			fmt.Fprintf(b, " %s=%s", pid, digestValue(ent.Facts[pid]))
		}
		switch d := out.Detections[i]; {
		case d.IsNew:
			fmt.Fprintf(b, " -> new (%v)\n", d.BestScore)
		case d.Matched:
			fmt.Fprintf(b, " -> %s (%v)\n", digestInstance(k, d.Instance), d.BestScore)
		default:
			fmt.Fprintf(b, " -> abstain (%v)\n", d.BestScore)
		}
	}
	refs := slices.SortedFunc(maps.Keys(out.RowInstance), func(a, b webtable.RowRef) int {
		if a.Table != b.Table {
			return a.Table - b.Table
		}
		return a.Row - b.Row
	})
	rowsOf := make(map[string][]webtable.RowRef)
	for _, ref := range refs {
		name := digestInstance(k, out.RowInstance[ref])
		rowsOf[name] = append(rowsOf[name], ref)
	}
	for _, name := range slices.Sorted(maps.Keys(rowsOf)) {
		refs := rowsOf[name]
		fmt.Fprintf(b, "rows %s:", name)
		for _, ref := range refs {
			fmt.Fprintf(b, " %d.%d", ref.Table, ref.Row)
		}
		b.WriteByte('\n')
	}
}

// digestInstance names a KB instance by its label, plus the writing epoch
// for an instance written back by an engine.
func digestInstance(k *kb.KB, id kb.InstanceID) string {
	name := fmt.Sprintf("%q", k.InstanceLabel(id))
	if prov, epoch := k.InstanceProvenance(id); prov == kb.ProvenanceIngest {
		name += fmt.Sprintf("@e%d", epoch)
	}
	return name
}

// digestValue renders every field of a fused value; %v prints the float
// payload in its shortest exact form.
func digestValue(v dtype.Value) string {
	return fmt.Sprintf("%d:%q:%q:%v:%d-%d-%d/%d", v.Kind, v.Raw, v.Str, v.Num, v.Year, v.Month, v.Day, v.Gran)
}

// digestDiff lists the first lines that differ between two digests.
func digestDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; (i < len(w) || i < len(g)) && shown < 20; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
			shown++
		}
	}
	return b.String()
}
