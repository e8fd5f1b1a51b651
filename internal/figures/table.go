package figures

import (
	"fmt"
	"io"
	"strings"
)

// Table is one reproduced figure/table: a title, column headers, and
// string-rendered rows, printable as aligned text.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Notes carries the comparison against the paper's reported values.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v (floats as %.3g
// when given as float64).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Headers)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}
