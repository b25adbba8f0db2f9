// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6: Table 1 and Figs. 5-13) and nothing else. Each
// driver runs the relevant systems at a laptop-scale version of the
// paper's parameters and returns both a formatted table (the rows the
// paper plots) and structured results that the tests assert shape
// properties on (who wins, by roughly what factor, where crossovers
// fall). The repository's performance benchmark is bench/e2e, not this
// package.
//
// Scaling: state sizes are MB instead of GB, checkpoint intervals are
// hundreds of milliseconds instead of 10 s, and node counts are bounded by
// the local core count. EXPERIMENTS.md records the mapping per figure.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Scale selects how long each measurement point runs.
type Scale struct {
	// PointDuration is the measurement window per configuration point.
	PointDuration time.Duration
	// Clients is the number of concurrent open-loop request drivers.
	Clients int
}

// Quick is the default scale used by `go test -bench` (seconds per figure).
var Quick = Scale{PointDuration: 400 * time.Millisecond, Clients: 8}

// Full is the scale used by the standalone harness for smoother numbers.
var Full = Scale{PointDuration: 1500 * time.Millisecond, Clients: 16}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}
