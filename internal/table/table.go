// Package table renders aligned plain-text tables for the experiment
// reports (Table 1, the beta ablation, the asymptotic sandwich). It is
// deliberately tiny: headers, right-aligned numeric columns, and a
// separator row — enough to mirror the paper's tables in a terminal.
package table

import (
	"fmt"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	headers []string
	rows    [][]string
}

// New creates a table with the given column headers. At least one
// header is required; Render panics otherwise (a static misuse).
func New(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row of pre-formatted cells. Rows shorter than the
// header are padded with empty cells; longer rows are a programming
// error and panic.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.headers) {
		panic(fmt.Sprintf("table: row has %d cells for %d columns", len(cells), len(t.headers)))
	}
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Render returns the formatted table. Every column is padded to its
// widest cell; a dashed separator follows the header.
func (t *Table) Render() string {
	if len(t.headers) == 0 {
		panic("table: no columns")
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}

	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// pad right-aligns s in a field of the given width (numeric tables read
// best right-aligned; headers follow the same rule for simplicity).
func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return strings.Repeat(" ", width-len(s)) + s
}
