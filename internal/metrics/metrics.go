// Package metrics implements the evaluation metrics of the paper's §VI-A —
// average absolute error (AAE) and average relative error (ARE, Eq. 17),
// insertion/deletion throughput, and space — plus a small
// aligned-table renderer the benchmark harness uses to print the rows each
// paper figure plots.
package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a lock-free monotonically-increasing event counter, safe for
// concurrent use. Subsystems (e.g. internal/analytics) expose Counters
// that /healthz reads without synchronizing with the hot paths that bump
// them.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Accuracy accumulates AAE and ARE over a query set (paper Eq. 17):
//
//	AAE = (1/p)·Σ|fᵢ − f̂ᵢ|      ARE = (1/p)·Σ|fᵢ − f̂ᵢ|/fᵢ
//
// Relative error divides by max(fᵢ, 1) so zero-truth queries (which all
// structures may legitimately over-estimate) contribute their absolute
// error instead of an undefined ratio.
type Accuracy struct {
	n           int
	absSum      float64
	relSum      float64
	undercounts int
}

// Observe records one query: the estimate and the exact value.
func (a *Accuracy) Observe(got, want int64) {
	diff := got - want
	if diff < 0 {
		a.undercounts++
		diff = -diff
	}
	a.n++
	a.absSum += float64(diff)
	den := float64(want)
	if den < 1 {
		den = 1
	}
	a.relSum += float64(diff) / den
}

// N returns the number of observed queries.
func (a *Accuracy) N() int { return a.n }

// AAE returns the average absolute error.
func (a *Accuracy) AAE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.absSum / float64(a.n)
}

// ARE returns the average relative error.
func (a *Accuracy) ARE() float64 {
	if a.n == 0 {
		return 0
	}
	return a.relSum / float64(a.n)
}

// Undercounts returns how many estimates fell below the truth. For every
// structure in this repository it must be zero (one-sided error); the
// harness asserts this.
func (a *Accuracy) Undercounts() int { return a.undercounts }

// Throughput returns operations per second.
func Throughput(ops int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// FormatEPS renders a throughput figure as, e.g., "1.23M ops/s".
func FormatEPS(eps float64) string {
	switch {
	case eps >= 1e6:
		return fmt.Sprintf("%.2fM ops/s", eps/1e6)
	case eps >= 1e3:
		return fmt.Sprintf("%.2fK ops/s", eps/1e3)
	default:
		return fmt.Sprintf("%.1f ops/s", eps)
	}
}

// FormatBytes renders a byte count as, e.g., "12.3 MB".
func FormatBytes(b int64) string {
	const unit = 1024
	switch {
	case b >= unit*unit*unit:
		return fmt.Sprintf("%.2f GB", float64(b)/(unit*unit*unit))
	case b >= unit*unit:
		return fmt.Sprintf("%.2f MB", float64(b)/(unit*unit))
	case b >= unit:
		return fmt.Sprintf("%.2f KB", float64(b)/unit)
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// FormatFloat renders an error metric compactly, switching to scientific
// notation for very large or very small magnitudes (the paper's log-scale
// plots span many decades).
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e5 || v < 1e-3:
		return fmt.Sprintf("%.2e", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Table renders aligned columns. It is intentionally minimal: the harness
// prints one table per paper figure.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, width := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", width-len(c)))
			if i < len(widths)-1 {
				b.WriteString("  ")
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for _, width := range widths {
		total += width + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}
