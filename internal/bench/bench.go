// Package bench implements the experiment harness: one runner per table and
// figure of the reconstructed evaluation (DESIGN.md §4). Each runner builds
// fresh databases, drives a workload, and returns a formatted Table
// with the same rows/series the paper-style experiment reports.
package bench

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Tracer, when set (viewbench -trace-slow), is installed as Options.Tracer on
// every database the harness opens, so slow lock waits, folds, and group
// commits stream out of experiment runs.
var Tracer metrics.Tracer

// MetricsSink, when set (viewbench -metrics), receives the headline (F2
// escrow, max writers) database's full metrics snapshot just before that
// database is torn down. CI saves it as the bench-smoke artifact.
var MetricsSink func(metrics.Snapshot)

// Watchdog, when set (viewbench default), enables the stall watchdog on
// every database the harness opens.
var Watchdog bool

// ScrubInterval, when positive (viewbench -scrub), runs the online
// consistency scrubber on every database the harness opens, at that tick and
// the default row budget — so the benchmarks measure the engine as deployed
// with continuous verification on.
var ScrubInterval time.Duration

// FlightSink, when set (viewbench -flight-sink), receives automatic
// flight-record dumps from every database the harness opens.
var FlightSink io.Writer

// ProfileLabels, when set (viewbench -pprof-labels), tags commit hot paths
// with runtime/pprof labels on every database the harness opens.
var ProfileLabels bool

// current is the most recently opened harness database, so viewbench's
// SIGQUIT handler can dump the flight record of whatever is running now.
var current atomic.Pointer[core.DB]

// CurrentDB returns the database the harness most recently opened (and has
// not yet torn down), or nil.
func CurrentDB() *core.DB { return current.Load() }

// Scale shrinks experiments for quick runs (tests, testing.B iterations);
// Full is the cmd/viewbench default.
type Scale struct {
	// Factor divides workload sizes; 1 = full experiment.
	Factor int
}

// Full runs experiments at paper-style scale.
var Full = Scale{Factor: 1}

// Quick runs experiments at roughly 1/8 scale.
var Quick = Scale{Factor: 8}

// Smoke runs experiments at ~1/64 scale: just enough work to produce a
// headline metric for the CI bench-smoke gate and the results-schema test.
var Smoke = Scale{Factor: 64}

func (s Scale) div(n int) int {
	if s.Factor <= 1 {
		return n
	}
	out := n / s.Factor
	if out < 1 {
		return 1
	}
	return out
}

// tempDB creates a database in a fresh temporary directory; cleanup removes
// it.
func tempDB(opts core.Options) (*core.DB, func(), error) {
	if opts.Tracer == nil {
		opts.Tracer = Tracer
	}
	if Watchdog {
		opts.Watchdog = true
	}
	if opts.ScrubInterval == 0 && ScrubInterval > 0 {
		opts.ScrubInterval = ScrubInterval
	}
	if opts.FlightSink == nil {
		opts.FlightSink = FlightSink
	}
	if ProfileLabels {
		opts.ProfileLabels = true
	}
	dir, err := os.MkdirTemp("", "vtxnbench-*")
	if err != nil {
		return nil, nil, err
	}
	db, err := core.Open(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	current.Store(db)
	cleanup := func() {
		current.CompareAndSwap(db, nil)
		db.Close()
		os.RemoveAll(dir)
	}
	return db, cleanup, nil
}

func strategyName(s catalog.Strategy) string { return s.String() }

// viewFreshness finds the named view's freshness snapshot (zero value when
// the view has no samples yet).
func viewFreshness(m metrics.Snapshot, view string) metrics.ViewFreshnessSnapshot {
	for _, v := range m.Freshness.Views {
		if v.View == view {
			return v
		}
	}
	return metrics.ViewFreshnessSnapshot{}
}

// freshCell formats a commit-to-visible summary for a table cell.
func freshCell(v metrics.ViewFreshnessSnapshot) string {
	if v.CommitToVisible.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%s/%s",
		D(time.Duration(v.CommitToVisible.P50Ns)),
		D(time.Duration(v.CommitToVisible.P99Ns)))
}

// Runner is one experiment: an ID (table/figure number) and its run
// function.
type Runner struct {
	ID   string
	Name string
	Run  func(Scale) (*Table, error)
}

// All returns every experiment in the evaluation, in paper order.
func All() []Runner {
	return []Runner{
		{ID: "T1", Name: "view maintenance overhead", Run: RunT1Overhead},
		{ID: "F2", Name: "escrow vs X-lock scaling (headline)", Run: RunF2EscrowScaling},
		{ID: "F3", Name: "throughput vs number of groups", Run: RunF3Contention},
		{ID: "F4", Name: "deadlock/abort rate vs writers", Run: RunF4Aborts},
		{ID: "T5", Name: "reader/writer interaction by isolation", Run: RunT5Readers},
		{ID: "T5R", Name: "snapshot read scaling (mixed read/write)", Run: RunT5RSnapshotScaling},
		{ID: "F6", Name: "query speedup from the indexed view", Run: RunF6QuerySpeedup},
		{ID: "T7", Name: "ghost vs direct structural maintenance", Run: RunT7Ghosts},
		{ID: "T8", Name: "crash recovery", Run: RunT8Recovery},
		{ID: "F9", Name: "immediate vs deferred maintenance", Run: RunF9Deferred},
		{ID: "F9D", Name: "deferred tier: applier throughput and drain", Run: RunF9DDeferredApplier},
		{ID: "DAG", Name: "view DAG: 3-level rollup chain, escrow vs deferred", Run: RunDAGRollupChain},
		{ID: "T10", Name: "ablations (MIN/MAX, escalation, group commit)", Run: RunT10Ablations},
		{ID: "T11", Name: "isolation levels and key-range locking", Run: RunT11Isolation},
	}
}

// Find returns the runner with the given ID.
func Find(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("bench: unknown experiment %q", id)
}
