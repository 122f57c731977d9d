// Package bench implements the experiment harness: one runner per table and
// figure of the reconstructed evaluation (DESIGN.md §4). Each runner builds
// fresh databases, drives a workload, and returns a formatted Table
// with the same rows/series the paper-style experiment reports.
package bench

import (
	"fmt"
	"os"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Tracer, when set (viewbench -trace-slow), is installed as Options.Tracer on
// every database the harness opens, so slow lock waits, folds, and group
// commits stream out of experiment runs.
var Tracer metrics.Tracer

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
	dir, err := os.MkdirTemp("", "vtxnbench-*")
	if err != nil {
		return nil, nil, err
	}
	db, err := core.Open(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup := func() {
		db.Close()
		os.RemoveAll(dir)
	}
	return db, cleanup, nil
}

func strategyName(s catalog.Strategy) string { return s.String() }

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
		{ID: "F6", Name: "query speedup from the indexed view", Run: RunF6QuerySpeedup},
		{ID: "T7", Name: "ghost vs direct structural maintenance", Run: RunT7Ghosts},
		{ID: "T8", Name: "crash recovery", Run: RunT8Recovery},
		{ID: "F9", Name: "immediate vs deferred maintenance", Run: RunF9Deferred},
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
