package webtable

import (
	"strings"
)

// ExtractHTML parses an HTML document and extracts relational tables,
// substituting for the WDC extraction pipeline. The parser is a small
// hand-written tokenizer (stdlib only): it recognizes <table>, <tr>, <th>,
// <td>, <caption>, honors colspan by cell duplication, strips nested
// markup, and decodes common entities.
//
// A parsed table is kept only if it passes the relational heuristics the
// WDC corpus applies: at least 2 columns and 1 body row after header
// detection, a rectangular layout, and not a layout table (those typically
// have a single giant cell or no header-like first row).
func ExtractHTML(html string) []*Table {
	var tables []*Table
	for _, raw := range findTables(html) {
		if t := parseTable(raw); t != nil {
			tables = append(tables, t)
		}
	}
	return tables
}

// findTables returns the inner HTML of every top-level <table> element.
// Nested tables are treated as content of their parent (their markup is
// stripped), which matches the WDC extractor's behaviour of skipping layout
// nesting.
func findTables(html string) []string {
	var out []string
	i := 0
	for {
		start := indexFold(html, "<table", i)
		if start < 0 {
			return out
		}
		open := strings.IndexByte(html[start:], '>')
		if open < 0 {
			return out
		}
		bodyStart := start + open + 1
		closeStart := tableClose(html, bodyStart)
		if closeStart < 0 {
			return out // unterminated table: drop it
		}
		out = append(out, html[bodyStart:closeStart])
		i = closeStart + len("</table")
	}
}

// stripNestedTables removes any <table>…</table> blocks nested inside a
// table's inner HTML, keeping only the outer table's own rows.
func stripNestedTables(inner string) string {
	var b strings.Builder
	i := 0
	for {
		start := indexFold(inner, "<table", i)
		if start < 0 {
			b.WriteString(inner[i:])
			return b.String()
		}
		b.WriteString(inner[i:start])
		closeStart := tableClose(inner, start+len("<table"))
		if closeStart < 0 {
			return b.String() // unterminated nested table: drop rest
		}
		end := strings.IndexByte(inner[closeStart:], '>')
		if end < 0 {
			return b.String()
		}
		i = closeStart + end + 1
	}
}

// tableClose returns the offset in s of the </table tag that closes a
// table opened before from, skipping nested tables, or -1 when the table
// is unterminated.
func tableClose(s string, from int) int {
	for depth := 1; ; {
		nextOpen := indexFold(s, "<table", from)
		nextClose := indexFold(s, "</table", from)
		switch {
		case nextClose < 0:
			return -1
		case nextOpen >= 0 && nextOpen < nextClose:
			depth++
			from = nextOpen + len("<table")
		case depth == 1:
			return nextClose
		default:
			depth--
			from = nextClose + len("</table")
		}
	}
}

// indexFold returns the offset of the first match of the lower-case ASCII
// pattern sub in s at or after from, or -1. ASCII letters match either
// case and every other byte matches itself, the way HTML matches tag
// names; offsets are into s itself, so they stay valid for slicing s
// whatever its encoding.
func indexFold(s, sub string, from int) int {
	for i := from; i >= 0 && i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && (s[i+j] == sub[j] || s[i+j]|0x20 == sub[j] && 'a' <= sub[j] && sub[j] <= 'z') {
			j++
		}
		if j == len(sub) {
			return i
		}
	}
	return -1
}

// parseTable converts the inner HTML of a table element into a Table, or
// nil when the element is not a relational table.
func parseTable(inner string) *Table {
	inner = stripNestedTables(inner)
	caption := textBetween(inner, "<caption", "</caption>")
	var rows [][]string
	var headerFlags []bool
	i := 0
	for {
		trStart := indexFold(inner, "<tr", i)
		if trStart < 0 {
			break
		}
		trOpen := strings.IndexByte(inner[trStart:], '>')
		if trOpen < 0 {
			break
		}
		cellStart := trStart + trOpen + 1
		trEnd := indexFold(inner, "</tr", cellStart)
		if trEnd < 0 {
			trEnd = len(inner)
		}
		rowHTML := inner[cellStart:trEnd]
		cells, isHeader := parseRow(rowHTML)
		if len(cells) > 0 {
			rows = append(rows, cells)
			headerFlags = append(headerFlags, isHeader)
		}
		i = trEnd + 4
	}
	if len(rows) < 2 {
		return nil
	}
	// Header detection: the first row if it used <th>, else if every cell
	// of the first row is non-numeric text while later rows are not.
	headerIdx := -1
	if headerFlags[0] {
		headerIdx = 0
	} else if looksLikeHeader(rows[0], rows[1:]) {
		headerIdx = 0
	}
	if headerIdx != 0 {
		return nil // relational web tables carry a header row
	}
	headers := rows[0]
	body := rows[1:]
	width := len(headers)
	if width < 2 {
		return nil
	}
	// Rectangularize: drop rows of deviating width (layout artifacts);
	// keep the table only if most rows conform.
	var clean [][]string
	for _, r := range body {
		if len(r) == width {
			clean = append(clean, r)
		}
	}
	if len(clean) == 0 || len(clean)*2 < len(body) {
		return nil
	}
	t := &Table{Caption: caption, Headers: headers, Cells: clean, LabelCol: -1}
	if err := t.Validate(); err != nil {
		return nil
	}
	return t
}

// parseRow extracts the cells of a <tr> body, expanding colspan, and
// reports whether the row used <th> cells.
func parseRow(rowHTML string) (cells []string, isHeader bool) {
	i := 0
	thCount, tdCount := 0, 0
	for {
		thIdx := indexFold(rowHTML, "<th", i)
		tdIdx := indexFold(rowHTML, "<td", i)
		var start int
		var isTH bool
		switch {
		case thIdx < 0 && tdIdx < 0:
			if thCount > 0 && tdCount == 0 {
				isHeader = true
			}
			return cells, isHeader
		case tdIdx < 0 || (thIdx >= 0 && thIdx < tdIdx):
			start, isTH = thIdx, true
		default:
			start, isTH = tdIdx, false
		}
		open := strings.IndexByte(rowHTML[start:], '>')
		if open < 0 {
			return cells, isHeader
		}
		attrs := rowHTML[start+3 : start+open]
		contentStart := start + open + 1
		closeTag := "</th"
		if !isTH {
			closeTag = "</td"
		}
		end := indexFold(rowHTML, closeTag, contentStart)
		nextCell := nextCellStart(rowHTML, contentStart)
		if end < 0 || (nextCell >= 0 && nextCell < end) {
			end = nextCell
		}
		if end < 0 {
			end = len(rowHTML)
		}
		text := stripTags(rowHTML[contentStart:end])
		span := colspan(attrs)
		for s := 0; s < span; s++ {
			cells = append(cells, text)
		}
		if isTH {
			thCount++
		} else {
			tdCount++
		}
		i = end + 1
	}
}

func nextCellStart(s string, from int) int {
	th := indexFold(s, "<th", from)
	td := indexFold(s, "<td", from)
	switch {
	case th < 0:
		return td
	case td < 0:
		return th
	case th < td:
		return th
	default:
		return td
	}
}

// colspan parses a colspan attribute out of a tag's attribute string.
func colspan(attrs string) int {
	idx := indexFold(attrs, "colspan", 0)
	if idx < 0 {
		return 1
	}
	rest := attrs[idx+len("colspan"):]
	rest = strings.TrimLeft(rest, " =\"'")
	n := 0
	for _, r := range rest {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	if n < 1 || n > 100 {
		return 1
	}
	return n
}

// looksLikeHeader reports whether row could be a header given the body
// rows: all its cells are non-empty, none parse as numbers, and at least
// one body row has a numeric cell in a column where the candidate header
// is textual.
func looksLikeHeader(row []string, body [][]string) bool {
	if len(body) == 0 {
		return false
	}
	for _, c := range row {
		t := strings.TrimSpace(c)
		if t == "" || isNumericCell(t) {
			return false
		}
	}
	return true
}

func isNumericCell(s string) bool {
	digits := 0
	for _, r := range s {
		if r >= '0' && r <= '9' {
			digits++
		}
	}
	return digits*2 > len(s)
}

// textBetween extracts the text content of the first occurrence of the
// element opened by openPrefix (e.g. "<caption") and closed by closeTag.
// Both are lower-case ASCII and match case-insensitively.
func textBetween(html, openPrefix, closeTag string) string {
	start := indexFold(html, openPrefix, 0)
	if start < 0 {
		return ""
	}
	open := strings.IndexByte(html[start:], '>')
	if open < 0 {
		return ""
	}
	contentStart := start + open + 1
	end := indexFold(html, closeTag, contentStart)
	if end < 0 {
		return ""
	}
	return stripTags(html[contentStart:end])
}

// stripTags removes markup, decodes common entities, and collapses
// whitespace.
func stripTags(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '<':
			depth++
		case r == '>':
			if depth > 0 {
				depth--
			}
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.Join(strings.Fields(decodeEntities(b.String())), " ")
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&nbsp;", " ",
	"&ndash;", "-",
	"&mdash;", "-",
)

func decodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}
