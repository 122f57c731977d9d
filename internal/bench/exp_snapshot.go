package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/workload"
)

// RunT5RSnapshotScaling (Table 5R): the mixed read/write scenario for the
// MVCC read path. A fixed pool of escrow writers churns the hot view rows
// for the whole run while the reader pool sweeps 1..16 goroutines, once with
// lock-based read-committed reads and once with read-only snapshot reads.
// The paper's promise is on the snapshot side: readers never enter the lock
// manager and never block a writer, so read throughput scales with reader
// count instead of flattening against the writers' E-lock traffic.
func RunT5RSnapshotScaling(s Scale) (*Table, error) {
	readerSweep := []int{1, 2, 4, 8, 16}
	// Floor the per-reader iteration count: reads are microseconds each, so a
	// naively scaled smoke run finishes inside the scheduler's warm-up
	// transient and the headline becomes noise-dominated (>2x run-to-run
	// swings, far past benchgate's 30% threshold).
	perReader := s.div(4000)
	if perReader < 1000 {
		perReader = 1000
	}
	const writers = 8
	tb := &Table{
		ID:    "T5R",
		Title: "snapshot vs read-committed view reads, 8 escrow writers, reader sweep",
		Header: []string{"readers", "rc reads/s", "snapshot reads/s",
			"snapshot p50", "snapshot p99", "writer tx/s", "chains hiwater"},
	}
	for _, readers := range readerSweep {
		var rcTP, snapTP, writerTP float64
		var snapP50, snapP99 time.Duration
		var hiwater int64
		for _, snapshot := range []bool{false, true} {
			db, cleanup, err := tempDB(core.Options{LockTimeout: 30 * time.Second})
			if err != nil {
				return nil, err
			}
			// Writers carry the standard 500µs multi-statement think time (as
			// in F2): the churn is live for every read, but spinning writers
			// don't starve the readers of cores — without pacing, the headline
			// on small machines measures scheduler luck, not the read path.
			w := workload.Banking{Accounts: 1000, Branches: 4,
				Strategy: catalog.StrategyEscrow, InitialBalance: 1000,
				ThinkTime: 500 * time.Microsecond}
			if err := w.Setup(db); err != nil {
				cleanup()
				return nil, err
			}
			readOp := func(rng *rand.Rand) error { return w.ReadBranchOp(db, rng, txn.ReadCommitted) }
			if snapshot {
				readOp = func(rng *rand.Rand) error { return w.ReadBranchSnapshotOp(db, rng) }
			}
			readRuns, wTP := runReadersAgainstChurn(db, w, writers, readers, perReader, readOp)
			snap := db.Metrics()
			cleanup()
			if readRuns.Errors > 0 {
				// Reads on these paths never abort; any error is a real failure.
				return nil, fmt.Errorf("bench: T5R: %d read ops failed (snapshot=%v, readers=%d)",
					readRuns.Errors, snapshot, readers)
			}
			if snapshot {
				snapTP = readRuns.Throughput()
				snapP50 = readRuns.Latencies.Percentile(0.5)
				snapP99 = readRuns.Latencies.Percentile(0.99)
				writerTP = wTP
				hiwater = snap.MVCC.ChainLenHighWater
				if readers == 8 {
					tb.HeadlineName, tb.Headline = "snapshot_reads_per_sec_8_readers", snapTP
				}
			} else {
				rcTP = readRuns.Throughput()
			}
		}
		tb.AddRow(F(float64(readers)), F(rcTP), F(snapTP),
			D(snapP50), D(snapP99), F(writerTP), F(float64(hiwater)))
	}
	tb.Notes = append(tb.Notes,
		"writers run for the whole reader sweep; snapshot readers take zero lock-manager traffic")
	return tb, nil
}

// runReadersAgainstChurn drives the reader pool to completion while the
// writer pool churns continuously (writers stop when the readers finish, so
// every read races live escrow commits). Returns the reader statistics and
// the writers' committed-transaction throughput over the same span.
func runReadersAgainstChurn(db *core.DB, w workload.Banking, writers, readers, perReader int,
	readOp func(*rand.Rand) error) (readRuns workload.Runs, writerTP float64) {
	var stop atomic.Bool
	var writerOps int64
	var wwg, rwg sync.WaitGroup
	start := time.Now()
	for c := 0; c < writers; c++ {
		wwg.Add(1)
		go func(c int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for !stop.Load() {
				if err := w.DepositOp(db, rng); err == nil {
					atomic.AddInt64(&writerOps, 1)
				}
			}
		}(c)
	}
	readRuns.Latencies = &metrics.Histogram{}
	var mu sync.Mutex
	for c := 0; c < readers; c++ {
		rwg.Add(1)
		go func(c int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			var errs int64
			for i := 0; i < perReader; i++ {
				t0 := time.Now()
				if err := readOp(rng); err != nil {
					errs++
				}
				readRuns.Latencies.Observe(time.Since(t0))
			}
			mu.Lock()
			readRuns.Ops += int64(perReader)
			readRuns.Errors += errs
			mu.Unlock()
		}(c)
	}
	rwg.Wait()
	elapsed := time.Since(start)
	stop.Store(true)
	wwg.Wait()
	readRuns.Elapsed = elapsed
	if secs := elapsed.Seconds(); secs > 0 {
		writerTP = float64(atomic.LoadInt64(&writerOps)) / secs
	}
	return readRuns, writerTP
}
