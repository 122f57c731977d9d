// Benchmarks regenerating every table and figure of the reconstructed
// evaluation (DESIGN.md §4). Each benchmark runs its experiment at reduced
// scale per iteration and reports headline custom metrics; run
// cmd/viewbench for the full paper-style tables.
package vtxn_test

import (
	"strconv"
	"testing"

	"repro/internal/bench"
)

// benchScale keeps testing.B iterations affordable.
var benchScale = bench.Scale{Factor: 16}

// runExperiment runs one experiment per b.N iteration and reports the last
// table via b.Log so `go test -bench -v` shows the rows.
func runExperiment(b *testing.B, id string) *bench.Table {
	b.Helper()
	r, err := bench.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb, err = r.Run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tb.String())
	return tb
}

// cell parses a numeric table cell (for ReportMetric), tolerating suffixes.
func cell(tb *bench.Table, row, col int) float64 {
	s := tb.Rows[row][col]
	for len(s) > 0 {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
		s = s[:len(s)-1]
	}
	return 0
}

// BenchmarkT1MaintenanceOverhead regenerates Table 1: per-transaction cost
// of immediate view maintenance.
func BenchmarkT1MaintenanceOverhead(b *testing.B) {
	tb := runExperiment(b, "T1")
	b.ReportMetric(cell(tb, 1, 4), "escrow-ops/s")
	b.ReportMetric(cell(tb, 0, 4), "noview-ops/s")
}

// BenchmarkF2EscrowScaling regenerates Figure 2 (headline): escrow vs X-lock
// throughput as writers grow.
func BenchmarkF2EscrowScaling(b *testing.B) {
	tb := runExperiment(b, "F2")
	last := len(tb.Rows) - 1
	b.ReportMetric(cell(tb, last, 1), "escrow-tx/s@32w")
	b.ReportMetric(cell(tb, last, 2), "xlock-tx/s@32w")
}

// BenchmarkF3Contention regenerates Figure 3: throughput vs group count.
func BenchmarkF3Contention(b *testing.B) {
	tb := runExperiment(b, "F3")
	b.ReportMetric(cell(tb, 0, 1), "escrow-tx/s@1group")
	b.ReportMetric(cell(tb, 0, 2), "xlock-tx/s@1group")
}

// BenchmarkF4Aborts regenerates Figure 4: deadlock/abort rate vs writers.
func BenchmarkF4Aborts(b *testing.B) {
	tb := runExperiment(b, "F4")
	last := len(tb.Rows) - 1
	b.ReportMetric(cell(tb, last, 1), "escrow-aborts/1k")
	b.ReportMetric(cell(tb, last, 2), "xlock-aborts/1k")
}

// BenchmarkT5Readers regenerates Table 5: reader/writer interaction.
func BenchmarkT5Readers(b *testing.B) {
	tb := runExperiment(b, "T5")
	b.ReportMetric(cell(tb, 0, 4), "rc-reads/s")
	b.ReportMetric(cell(tb, 1, 4), "ser-reads/s")
}

// BenchmarkF6QuerySpeedup regenerates Figure 6: indexed-view lookup vs base
// scan.
func BenchmarkF6QuerySpeedup(b *testing.B) {
	tb := runExperiment(b, "F6")
	last := len(tb.Rows) - 1
	b.ReportMetric(cell(tb, last, 3), "speedup-x")
}

// BenchmarkT7Ghosts regenerates Table 7: ghost vs direct structural
// maintenance under group churn.
func BenchmarkT7Ghosts(b *testing.B) {
	tb := runExperiment(b, "T7")
	b.ReportMetric(cell(tb, 0, 1), "escrow-tx/s")
	b.ReportMetric(cell(tb, 1, 1), "xlock-tx/s")
}

// BenchmarkT8Recovery regenerates Table 8: recovery time vs log length.
func BenchmarkT8Recovery(b *testing.B) {
	tb := runExperiment(b, "T8")
	for _, row := range tb.Rows {
		if row[len(row)-1] != "yes" {
			b.Fatalf("recovery left inconsistent views: %v", row)
		}
	}
}

// BenchmarkF9Deferred regenerates Figure 9: immediate vs deferred
// maintenance.
func BenchmarkF9Deferred(b *testing.B) {
	tb := runExperiment(b, "F9")
	b.ReportMetric(cell(tb, 0, 1), "immediate-tx/s")
	b.ReportMetric(cell(tb, 1, 1), "deferred-tx/s")
}

// BenchmarkT10Ablations regenerates Table 10: MIN/MAX fallback, escalation,
// and fsync ablations.
func BenchmarkT10Ablations(b *testing.B) {
	tb := runExperiment(b, "T10")
	b.ReportMetric(cell(tb, 0, 1), "sum-only-tx/s")
	b.ReportMetric(cell(tb, 1, 1), "with-max-tx/s")
}

// BenchmarkT11Isolation regenerates Table 11: the cost of key-range
// (phantom) locking by isolation level.
func BenchmarkT11Isolation(b *testing.B) {
	tb := runExperiment(b, "T11")
	for i, row := range tb.Rows {
		_ = i
		if row[len(row)-1] == "" {
			b.Fatalf("malformed row: %v", row)
		}
	}
}
