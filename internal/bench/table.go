package bench

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Table is a formatted experiment result: the rows/series a paper table or
// figure reports.
type Table struct {
	ID     string // experiment id, e.g. "F2"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string

	// HeadlineName and Headline identify the experiment's single scalar
	// result (e.g. peak escrow throughput) for machine-readable tracking
	// across runs — cmd/viewbench collects them into BENCH_results.json.
	HeadlineName string
	Headline     float64
	// HeadlineAllocsPerOp and the lock-manager counters below annotate the
	// headline run with its allocation cost and shard behavior when the
	// experiment records them (0 = not measured).
	HeadlineAllocsPerOp float64
	HeadlineShards      int
	HeadlineCollisions  int64
	HeadlineMaxQueue    int64
	// HeadlineFreshP50Ns/P99Ns annotate the headline run with its
	// commit-to-visible latency distribution when the experiment records it
	// (0 = not measured) — viewbench -freshness exports them so benchgate can
	// gate the freshness trajectory alongside throughput.
	HeadlineFreshP50Ns int64
	HeadlineFreshP99Ns int64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, hcell := range t.Header {
		widths[i] = len(hcell)
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
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// D formats a duration compactly for table cells.
func D(d time.Duration) string {
	switch {
	case d <= 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
