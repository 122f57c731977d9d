package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/workload"
)

// RunF4Aborts (Figure 4): abort (deadlock-victim) rate vs. concurrent
// writers. Transfer transactions touch two accounts — and, with view
// maintenance under X locks, two view rows — in random order, so the X-lock
// strategy manufactures deadlocks that escrow locks avoid entirely.
func RunF4Aborts(s Scale) (*Table, error) {
	writersSweep := []int{2, 4, 8, 16}
	perWriter := s.div(800)
	tb := &Table{
		ID:     "F4",
		Title:  "aborts per 1000 transfer transactions (4 hot branches)",
		Header: []string{"writers", "escrow aborts/1k", "xlock aborts/1k", "escrow deadlocks", "xlock deadlocks"},
	}
	for _, writers := range writersSweep {
		row := []string{F(float64(writers))}
		var abortRate [2]float64
		var deadlocks [2]int64
		for i, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyXLock} {
			db, cleanup, err := tempDB(core.Options{LockTimeout: 5 * time.Second})
			if err != nil {
				return nil, err
			}
			w := workload.Banking{Accounts: 400, Branches: 4, Strategy: strat,
				InitialBalance: 1000, ThinkTime: 200 * time.Microsecond}
			if err := w.Setup(db); err != nil {
				cleanup()
				return nil, err
			}
			runs := workload.RunConcurrent(db, writers, perWriter, 13, w.TellerOp)
			st := db.Stats()
			cleanup()
			if runs.Ops > 0 {
				abortRate[i] = 1000 * float64(runs.Aborts) / float64(runs.Ops)
			}
			deadlocks[i] = st.Lock.Deadlocks
			if strat == catalog.StrategyXLock && writers == writersSweep[len(writersSweep)-1] {
				tb.HeadlineName, tb.Headline = "xlock_deadlocks_max_writers", float64(st.Lock.Deadlocks)
				tb.Notes = append(tb.Notes, fmt.Sprintf(
					"xlock lock manager at %d writers: %d sweeps, last %v, max %v",
					writers, st.Lock.Sweeps, st.Lock.LastSweep, st.Lock.MaxSweep))
			}
		}
		row = append(row, F(abortRate[0]), F(abortRate[1]),
			F(float64(deadlocks[0])), F(float64(deadlocks[1])))
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"transfers lock two account rows (both strategies) plus two view rows (X-lock only)")
	return tb, nil
}

// RunT5Readers (Table 5): reader/writer interaction on an escrow-maintained
// view. Read-committed readers never block on escrow writers (the stored
// value is always committed); serializable readers take S locks that
// conflict with E and wait. The X-lock strategy blocks even RC readers.
// Snapshot readers ride the MVCC fast path: no lock-manager traffic at all,
// resolving against version chains at their pinned read timestamp.
func RunT5Readers(s Scale) (*Table, error) {
	perClient := s.div(1200)
	const writers = 8
	const readers = 4
	tb := &Table{
		ID:    "T5",
		Title: "view readers vs 8 escrow/xlock writers (4 hot branches)",
		Header: []string{"strategy", "reader isolation", "read p50", "read p99",
			"reads/s", "writer tx/s"},
	}
	for _, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyXLock} {
		for _, level := range []txn.Level{txn.ReadCommitted, txn.Serializable, txn.Snapshot} {
			db, cleanup, err := tempDB(core.Options{LockTimeout: 30 * time.Second})
			if err != nil {
				return nil, err
			}
			w := workload.Banking{Accounts: 1000, Branches: 4, Strategy: strat,
				InitialBalance: 1000, ThinkTime: 300 * time.Microsecond}
			if err := w.Setup(db); err != nil {
				cleanup()
				return nil, err
			}
			readRuns, writeRuns := runReadersWriters(db, w, level, writers, readers, perClient)
			cleanup()
			if strat == catalog.StrategyEscrow && level == txn.ReadCommitted {
				tb.HeadlineName, tb.Headline = "escrow_rc_reads_per_sec", readRuns.Throughput()
			}
			tb.AddRow(strategyName(strat), level.String(),
				D(readRuns.Latencies.Percentile(0.5)),
				D(readRuns.Latencies.Percentile(0.99)),
				F(readRuns.Throughput()), F(writeRuns.Throughput()))
		}
	}
	tb.Notes = append(tb.Notes,
		"escrow + read-committed is the paper's sweet spot: committed values, no blocking")
	return tb, nil
}

// runReadersWriters runs writer and reader pools concurrently and returns
// their separate statistics.
func runReadersWriters(db *core.DB, w workload.Banking, level txn.Level,
	writers, readers, perClient int) (readRuns, writeRuns workload.Runs) {
	var wg sync.WaitGroup
	readRuns.Latencies = &metrics.Histogram{}
	writeRuns.Latencies = &metrics.Histogram{}
	var readOps, writeOps, readAborts, writeAborts int64
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			var aborts int64
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := w.DepositOp(db, rng); err != nil {
					aborts++
				}
				writeRuns.Latencies.Observe(time.Since(t0))
			}
			mu.Lock()
			writeOps += int64(perClient)
			writeAborts += aborts
			mu.Unlock()
		}(c)
	}
	// Snapshot readers go through the read-only fast path; other levels take
	// the lock-based read.
	readOp := func(rng *rand.Rand) error { return w.ReadBranchOp(db, rng, level) }
	if level == txn.Snapshot {
		readOp = func(rng *rand.Rand) error { return w.ReadBranchSnapshotOp(db, rng) }
	}
	for c := 0; c < readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			var aborts int64
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := readOp(rng); err != nil {
					aborts++
				}
				readRuns.Latencies.Observe(time.Since(t0))
			}
			mu.Lock()
			readOps += int64(perClient)
			readAborts += aborts
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	readRuns.Ops, readRuns.Aborts, readRuns.Elapsed = readOps, readAborts, elapsed
	writeRuns.Ops, writeRuns.Aborts, writeRuns.Elapsed = writeOps, writeAborts, elapsed
	return readRuns, writeRuns
}

// RunF6QuerySpeedup (Figure 6): latency of answering the aggregate query
// from the indexed view (one B-tree lookup) vs. scanning the base table, as
// the base grows. The gap widens linearly with base size.
func RunF6QuerySpeedup(s Scale) (*Table, error) {
	sizes := []int{1_000, 10_000, 100_000}
	if s.Factor > 1 {
		sizes = []int{500, 2_000, 10_000}
	}
	const queries = 50
	tb := &Table{
		ID:     "F6",
		Title:  "aggregate query latency: indexed view lookup vs base-table scan",
		Header: []string{"base rows", "view lookup", "base scan", "speedup"},
	}
	for _, n := range sizes {
		db, cleanup, err := tempDB(core.Options{})
		if err != nil {
			return nil, err
		}
		w := workload.Orders{Products: 50, Skew: 0, Strategy: catalog.StrategyEscrow}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		if err := w.LoadOrders(db, n, 5); err != nil {
			cleanup()
			return nil, err
		}
		viewLat, err := timeQueries(db, queries, func(tx *core.Tx, rng *rand.Rand) error {
			_, _, err := tx.GetViewRow(workload.SalesView, record.Row{record.Int(int64(rng.Intn(50)))})
			return err
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		scanLat, err := timeQueries(db, queries, func(tx *core.Tx, rng *rand.Rand) error {
			_, err := tx.AggregateNoView("orders", nil, []int{1}, salesAggs())
			return err
		})
		cleanup()
		if err != nil {
			return nil, err
		}
		speedup := "-"
		if viewLat > 0 {
			speedup = F(float64(scanLat)/float64(viewLat)) + "x"
			// Largest base size wins: the experiment's point is how the gap grows.
			tb.HeadlineName, tb.Headline = "view_lookup_speedup_largest_base", float64(scanLat)/float64(viewLat)
		}
		tb.AddRow(F(float64(n)), D(viewLat), D(scanLat), speedup)
	}
	tb.Notes = append(tb.Notes, "view lookup is O(log n); the scan grows linearly with the base")
	return tb, nil
}

func timeQueries(db *core.DB, n int, q func(*core.Tx, *rand.Rand) error) (time.Duration, error) {
	rng := rand.New(rand.NewSource(3))
	start := time.Now()
	for i := 0; i < n; i++ {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			return 0, err
		}
		if err := q(tx, rng); err != nil {
			tx.Rollback()
			return 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}
