// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§V): Table I (compared
// applications), Table II + Figure 7 (execution time vs workers on
// UniProt), Table III (databases), Table IV + Figure 8 (five databases),
// Table V + Figure 9 (homogeneous vs heterogeneous query sets), plus the
// ablations listed in DESIGN.md. Paper-scale rows come from the
// calibrated platform model driven by the real scheduler; functional
// validation rows run the real engines on scaled databases.
package bench

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result, optionally with figure series.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	Series  []Series
}

// Series is one curve of a figure: X is the worker count (or other axis),
// Y the measured value.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
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
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	writeRow(t.Columns)
	writeRow(dashes)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	if len(t.Series) > 0 {
		fmt.Fprintf(&sb, "-- figure series (x = workers) --\n")
		for _, s := range t.Series {
			fmt.Fprintf(&sb, "%s:", s.Name)
			for i := range s.X {
				fmt.Fprintf(&sb, " (%g, %.2f)", s.X[i], s.Y[i])
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
