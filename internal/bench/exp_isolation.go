package bench

import (
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

// RunT11Isolation (Table 11): the price of phantom protection. Range
// scanners at each isolation level run against concurrent inserters:
// ReadCommitted locks nothing durable, RepeatableRead holds row locks, and
// Serializable additionally key-range locks the scanned gaps — blocking
// inserters that land inside them (and being blocked by uncommitted rows).
func RunT11Isolation(s Scale) (*Table, error) {
	perClient := s.div(600)
	const scanners = 4
	const inserters = 4
	tb := &Table{
		ID:    "T11",
		Title: "range scans vs concurrent inserters, by isolation level",
		Header: []string{"scanner isolation", "scan p50", "scan p99",
			"insert p50", "insert p99", "insert aborts/1k"},
	}
	for _, level := range []txn.Level{txn.ReadCommitted, txn.RepeatableRead, txn.Serializable} {
		db, cleanup, err := tempDB(core.Options{LockTimeout: 10 * time.Second})
		if err != nil {
			return nil, err
		}
		if err := setupSparseAccounts(db); err != nil {
			cleanup()
			return nil, err
		}
		scanRuns, insertRuns := runScannersInserters(db, level, scanners, inserters, perClient)
		cleanup()
		abortsPerK := float64(0)
		if insertRuns.Ops > 0 {
			abortsPerK = 1000 * float64(insertRuns.Aborts) / float64(insertRuns.Ops)
		}
		tb.AddRow(level.String(),
			D(scanRuns.Latencies.Percentile(0.5)),
			D(scanRuns.Latencies.Percentile(0.99)),
			D(insertRuns.Latencies.Percentile(0.5)),
			D(insertRuns.Latencies.Percentile(0.99)),
			F(abortsPerK))
	}
	tb.Notes = append(tb.Notes,
		"even ids are resident; inserters insert+delete odd ids, landing inside scanned gaps",
		"serializable gap locks block inserts into scanned ranges until the scan's txn ends")
	return tb, nil
}

// setupSparseAccounts loads accounts at even ids 0..3998 with a branch
// totals view, leaving odd ids as insertable gaps.
func setupSparseAccounts(db *core.DB) error {
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateIndexedView(catalog.View{
		Name: workload.ViewName, Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1}, Aggs: salesAggs(), Strategy: catalog.StrategyEscrow,
	}); err != nil {
		return err
	}
	for lo := int64(0); lo < 4000; lo += 1000 {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			return err
		}
		for id := lo; id < lo+1000; id += 2 {
			row := record.Row{record.Int(id), record.Int(id % 8), record.Int(100)}
			if err := tx.Insert("accounts", row); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// runScannersInserters runs short range scans and single-row inserters
// concurrently, reporting separate statistics.
func runScannersInserters(db *core.DB, level txn.Level,
	scanners, inserters, perClient int) (scanRuns, insertRuns workload.Runs) {
	var wg sync.WaitGroup
	scanRuns.Latencies = &metrics.Histogram{}
	insertRuns.Latencies = &metrics.Histogram{}
	var scanOps, insertOps, insertAborts int64
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < scanners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				tx, err := db.Begin(level)
				if err != nil {
					continue
				}
				lo := int64(rng.Intn(3900))
				n := 0
				scanErr := tx.ScanTable("accounts",
					record.Row{record.Int(lo)}, record.Row{record.Int(lo + 100)},
					func(record.Row) bool { n++; return true })
				if scanErr != nil {
					tx.Rollback()
				} else {
					tx.Commit()
				}
				scanRuns.Latencies.Observe(time.Since(t0))
			}
			mu.Lock()
			scanOps += int64(perClient)
			mu.Unlock()
		}(c)
	}
	for c := 0; c < inserters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + c)))
			var aborts int64
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					continue
				}
				// Insert then delete an odd id: the row lands inside the
				// resident key range (a phantom for any covering scan).
				id := int64(rng.Intn(2000))*2 + 1
				row := record.Row{record.Int(id), record.Int(id % 8), record.Int(1)}
				if err := tx.Insert("accounts", row); err != nil {
					tx.Rollback()
					aborts++
				} else if err := tx.Delete("accounts", record.Row{record.Int(id)}); err != nil {
					tx.Rollback()
					aborts++
				} else if err := tx.Commit(); err != nil {
					aborts++
				}
				insertRuns.Latencies.Observe(time.Since(t0))
			}
			mu.Lock()
			insertOps += int64(perClient)
			insertAborts += aborts
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	scanRuns.Ops, scanRuns.Elapsed = scanOps, elapsed
	insertRuns.Ops, insertRuns.Aborts, insertRuns.Elapsed = insertOps, insertAborts, elapsed
	return scanRuns, insertRuns
}
