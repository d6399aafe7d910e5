// Package experiments contains one runner per table/figure of the paper's
// evaluation (§V). Each runner builds its simulation cells as scenario
// specs (internal/scenario), runs them through the shared runner pool
// keyed by scenario.Built.Key, and returns a Table whose rows mirror the
// series the paper plots. The ablations beyond the paper run figure
// cells too: each variant row alters its cells' engine configuration
// (another placer) and runs uncached. The same runners back both
// `palsweep -experiments` and the root-level benchmark harness.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a title, column header, rows of
// cells, and free-form notes (e.g. the paper's reference values).
type Table struct {
	Name   string // experiment ID, e.g. "fig11"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting each value with the given verbs;
// values may be string, int, or float64 (formatted %.3g unless a float
// format is supplied via F).
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case int:
			row[i] = fmt.Sprintf("%d", v)
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns, suitable for terminal
// output and for pasting into EXPERIMENTS.md.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.Name, t.Title)
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
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			b.WriteString(c)
			for p := 0; p < pad; p++ {
				b.WriteByte(' ')
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
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Pct formats a fraction as a signed percentage ("+42.0%").
func Pct(frac float64) string {
	return fmt.Sprintf("%+.1f%%", frac*100)
}

// Hours formats seconds as hours with two decimals.
func Hours(sec float64) string {
	return fmt.Sprintf("%.2f", sec/3600)
}
