package metrics

import (
	"fmt"
	"strings"
)

// Table renders aligned text tables for the benchmark harness — the
// "same rows/series the paper reports" in plain-text form.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render produces the aligned table text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a 0..100 percentage with one decimal.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// F1 formats a float with one decimal place.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats a float with two decimal places.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }
