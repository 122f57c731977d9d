package main

import (
	"flag"
	"fmt"
	"testing"

	vtxn "repro"
)

// The layer probes: one file per probed layer (probe_<layer>.go), each
// calling only that leaf package's public functions, timed with
// testing.Benchmark. They do not depend on the workload being run: their
// inputs are drawn from the hot_escrow_write generator at the run's seed.
// When a leaf API changes, one small file here needs fixing.

// probeInput is the sample of generated data every probe works on.
type probeInput struct {
	rows   []vtxn.Row // the preloaded accounts followed by generated inserts
	outDir string
	seed   int64
}

func newProbeInput(seed int64, rows int, outDir string) *probeInput {
	in := &probeInput{outDir: outDir, seed: seed}
	for id := 0; id < rows; id++ {
		in.rows = append(in.rows, vtxn.Row{vtxn.Int(int64(id)), vtxn.Int(int64(id % hotBranches)), vtxn.Int(preloadBalance)})
	}
	g := newAccountsGen(seed, 0, 2, rows)
	for n := 0; n < rows/4; {
		if o := g.next(); o.kind == opInsert {
			in.rows = append(in.rows, vtxn.Row{vtxn.Int(o.id), vtxn.Int(o.group), vtxn.Int(o.amt[0])})
			n++
		}
	}
	return in
}

// probeTime is how long testing.Benchmark runs each probe.
const probeTime = "100ms"

// bench times fn and returns ns and heap allocations per operation.
func bench(fn func(b *testing.B)) (ns, allocs float64) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if res.N == 0 {
		return 0, 0
	}
	return float64(res.T.Nanoseconds()) / float64(res.N), float64(res.MemAllocs) / float64(res.N)
}

// runProbes fills vals with every workload-independent per-layer metric.
func runProbes(vals map[string]float64, seed int64, p plan, outDir string) error {
	if err := flag.Set("test.benchtime", probeTime); err != nil {
		return fmt.Errorf("probes: %w (testing.Init not called?)", err)
	}
	in := newProbeInput(seed, p.rows, outDir)
	probeRecord(vals, in)
	probeBtree(vals, in)
	probeLock(vals, in)
	probeEscrow(vals, in)
	probeTxn(vals)
	probeApplier(vals, in)
	for _, probe := range []func(map[string]float64, *probeInput) error{probeView, probeWAL, probeCore} {
		if err := probe(vals, in); err != nil {
			return err
		}
	}
	if err := probeDeferred(vals, in, p); err != nil {
		return err
	}
	return probePlanes(vals, in, p)
}
