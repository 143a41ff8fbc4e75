package webtable

import (
	"fmt"
	"testing"
)

const sampleHTML = `
<html><body>
<h1>Roster</h1>
<table>
  <caption>2010 Draft Class</caption>
  <tr><th>Player</th><th>Position</th><th>College</th></tr>
  <tr><td>Sam Bradford</td><td>QB</td><td>Oklahoma</td></tr>
  <tr><td>Ndamukong Suh</td><td>DT</td><td>Nebraska</td></tr>
</table>
<p>Some text.</p>
<table>
  <tr><td>layout</td></tr>
</table>
</body></html>`

func TestExtractHTMLBasic(t *testing.T) {
	tables := ExtractHTML(sampleHTML)
	if len(tables) != 1 {
		t.Fatalf("extracted %d tables, want 1 (layout table rejected)", len(tables))
	}
	tb := tables[0]
	if tb.Caption != "2010 Draft Class" {
		t.Errorf("caption = %q", tb.Caption)
	}
	if tb.NumCols() != 3 || tb.NumRows() != 2 {
		t.Fatalf("dims = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Headers[1] != "Position" {
		t.Errorf("header = %q", tb.Headers[1])
	}
	if tb.Cell(1, 2) != "Nebraska" {
		t.Errorf("cell = %q", tb.Cell(1, 2))
	}
}

func TestExtractHTMLHeaderFromTDs(t *testing.T) {
	// Header detection without <th>: textual first row over numeric body.
	html := `<table>
	<tr><td>City</td><td>Population</td></tr>
	<tr><td>Springfield</td><td>30,000</td></tr>
	<tr><td>Oakville</td><td>12,500</td></tr>
	</table>`
	tables := ExtractHTML(html)
	if len(tables) != 1 {
		t.Fatalf("extracted %d tables", len(tables))
	}
	if tables[0].Headers[0] != "City" || tables[0].NumRows() != 2 {
		t.Errorf("table = %+v", tables[0])
	}
}

func TestExtractHTMLRejectsNumericFirstRow(t *testing.T) {
	html := `<table>
	<tr><td>1</td><td>30000</td></tr>
	<tr><td>2</td><td>12500</td></tr>
	</table>`
	if tables := ExtractHTML(html); len(tables) != 0 {
		t.Errorf("numeric-first-row table should be rejected, got %d", len(tables))
	}
}

func TestExtractHTMLColspan(t *testing.T) {
	html := `<table>
	<tr><th>Name</th><th colspan="2">Location</th></tr>
	<tr><td>Springfield</td><td>Ohio</td><td>US</td></tr>
	</table>`
	tables := ExtractHTML(html)
	if len(tables) != 1 {
		t.Fatalf("extracted %d", len(tables))
	}
	if tables[0].NumCols() != 3 {
		t.Errorf("colspan expansion: cols = %d, want 3", tables[0].NumCols())
	}
	if tables[0].Headers[1] != "Location" || tables[0].Headers[2] != "Location" {
		t.Errorf("headers = %v", tables[0].Headers)
	}
}

func TestExtractHTMLNestedMarkupAndEntities(t *testing.T) {
	html := `<table>
	<tr><th>Song</th><th>Artist</th></tr>
	<tr><td><a href="/x">Rock &amp; Roll</a></td><td><b>The  Band</b></td></tr>
	<tr><td>Caf&#39;e Blues</td><td>Miles&nbsp;D</td></tr>
	</table>`
	tables := ExtractHTML(html)
	if len(tables) != 1 {
		t.Fatalf("extracted %d", len(tables))
	}
	if got := tables[0].Cell(0, 0); got != "Rock & Roll" {
		t.Errorf("entity decoding = %q", got)
	}
	if got := tables[0].Cell(0, 1); got != "The Band" {
		t.Errorf("whitespace collapse = %q", got)
	}
	if got := tables[0].Cell(1, 1); got != "Miles D" {
		t.Errorf("nbsp = %q", got)
	}
}

func TestExtractHTMLNestedTable(t *testing.T) {
	html := `<table>
	<tr><th>A</th><th>B</th></tr>
	<tr><td>x<table><tr><td>inner</td></tr></table></td><td>y</td></tr>
	<tr><td>p</td><td>q</td></tr>
	</table>`
	tables := ExtractHTML(html)
	if len(tables) != 1 {
		t.Fatalf("extracted %d tables, want 1 (nested stripped)", len(tables))
	}
	if tables[0].NumRows() != 2 {
		t.Errorf("rows = %d", tables[0].NumRows())
	}
}

func TestExtractHTMLRaggedRowsDropped(t *testing.T) {
	html := `<table>
	<tr><th>A</th><th>B</th></tr>
	<tr><td>1</td><td>2</td></tr>
	<tr><td>solo</td></tr>
	<tr><td>3</td><td>4</td></tr>
	</table>`
	tables := ExtractHTML(html)
	if len(tables) != 1 {
		t.Fatalf("extracted %d", len(tables))
	}
	if tables[0].NumRows() != 2 {
		t.Errorf("ragged row should be dropped: rows = %d", tables[0].NumRows())
	}
}

func TestExtractHTMLMultipleTables(t *testing.T) {
	html := sampleHTML + `<table><tr><th>X</th><th>Y</th></tr><tr><td>a</td><td>b</td></tr></table>`
	tables := ExtractHTML(html)
	if len(tables) != 2 {
		t.Errorf("extracted %d tables, want 2", len(tables))
	}
}

func TestExtractHTMLEmptyAndMalformed(t *testing.T) {
	if tables := ExtractHTML(""); len(tables) != 0 {
		t.Error("empty document")
	}
	if tables := ExtractHTML("<table><tr><td>unclosed"); len(tables) != 0 {
		t.Error("unterminated table should be dropped")
	}
	if tables := ExtractHTML("<p>no tables at all</p>"); len(tables) != 0 {
		t.Error("document without tables")
	}
}

func TestColspanParsing(t *testing.T) {
	cases := []struct {
		attrs string
		want  int
	}{
		{``, 1},
		{` colspan="3"`, 3},
		{` colspan=2`, 2},
		{` COLSPAN='4'`, 4},
		{` colspan="0"`, 1},
		{` colspan="9999"`, 1},
	}
	for _, c := range cases {
		if got := colspan(c.attrs); got != c.want {
			t.Errorf("colspan(%q) = %d, want %d", c.attrs, got, c.want)
		}
	}
}

func TestStripTags(t *testing.T) {
	if got := stripTags("<b>bold</b> and <i>italic</i>"); got != "bold and italic" {
		t.Errorf("stripTags = %q", got)
	}
	if got := stripTags("a &lt; b &gt; c"); got != "a < b > c" {
		t.Errorf("entities = %q", got)
	}
}

// nonASCIITable is a two-row table for TestExtractHTMLNonASCII.
const nonASCIITable = `<table><tr><th>Name</th><th>Year</th></tr>` +
	`<tr><td>Alpha</td><td>1999</td></tr><tr><td>Beta</td><td>2001</td></tr></table>`

// TestExtractHTMLNonASCII pins tag matching on the original bytes: a
// lowered copy changes length on invalid UTF-8 (each bad byte becomes a
// 3-byte U+FFFD) and on runes such as Ⱥ, so offsets taken on it panicked
// or cut the page and dropped its tables.
func TestExtractHTMLNonASCII(t *testing.T) {
	if got := ExtractHTML("<tABle\xb9\xa4\xdf\xf7></tABle"); len(got) != 0 {
		t.Errorf("unterminated table extracted as %d tables", len(got))
	}
	for _, prefix := range []string{"<p>\xff</p>", "<p>Ⱥ</p>"} {
		got := ExtractHTML(prefix + nonASCIITable)
		if len(got) != 1 {
			t.Fatalf("%q: extracted %d tables, want 1", prefix, len(got))
		}
		want := [][]string{{"Alpha", "1999"}, {"Beta", "2001"}}
		if fmt.Sprint(got[0].Headers) != "[Name Year]" || fmt.Sprint(got[0].Cells) != fmt.Sprint(want) {
			t.Errorf("%q: table %v %v, want [Name Year] %v", prefix, got[0].Headers, got[0].Cells, want)
		}
	}
}

// FuzzExtractHTML feeds arbitrary pages to ExtractHTML: it must not
// panic, and every table it returns must pass Validate. The seed corpus
// in testdata/fuzz holds TestExtractHTMLNonASCII's three pages.
func FuzzExtractHTML(f *testing.F) {
	f.Add(sampleHTML)
	f.Fuzz(func(t *testing.T, html string) {
		for _, tb := range ExtractHTML(html) {
			if err := tb.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func BenchmarkExtractHTML(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractHTML(sampleHTML)
	}
}
