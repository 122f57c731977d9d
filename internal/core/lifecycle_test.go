package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

func TestDescribeView(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	info, err := db.DescribeView("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Escrow {
		t.Fatal("escrow view not reported as escrow-maintained")
	}
	if info.Cells != 4 { // hidden count + COUNT(*) + SUM pair
		t.Fatalf("cells = %d", info.Cells)
	}
	if info.Rows != 1 || info.Ghosts != 0 {
		t.Fatalf("contents = %d/%d", info.Rows, info.Ghosts)
	}
	out := info.String()
	for _, want := range []string{"escrow maintenance", "SUM", "hidden COUNT(*)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}

	// A MIN/MAX view reports the fallback.
	if err := db.CreateIndexedView(catalog.View{
		Name: "extremes", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs:        []expr.AggSpec{{Func: expr.AggMax, Arg: expr.Col(2)}},
		Strategy:    catalog.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
	info, err = db.DescribeView("extremes")
	if err != nil {
		t.Fatal(err)
	}
	if info.Escrow {
		t.Fatal("MAX view reported as escrow-maintained")
	}
	if !strings.Contains(info.String(), "X-lock") {
		t.Fatalf("fallback not described:\n%s", info)
	}
	if _, err := db.DescribeView("nope"); err == nil {
		t.Fatal("missing view described")
	}
}

// TestCheckpointUnderLoad runs checkpoints while writers churn: the quiesce
// gate must drain cleanly and post-checkpoint recovery must be consistent.
func TestCheckpointUnderLoad(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{GhostCleanInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)

	var stop atomic.Bool
	var wg sync.WaitGroup
	var committed atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := int64(0)
			for !stop.Load() {
				i++
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return // closed
				}
				id := int64(w)*1_000_000 + i
				if err := tx.Insert("accounts", acctRow(id, id%3, 5)); err != nil {
					tx.Rollback()
					continue
				}
				if tx.Commit() == nil {
					committed.Add(1)
				}
			}
		}(w)
	}
	for c := 0; c < 5; c++ {
		for start := committed.Load(); committed.Load() < start+40; {
			time.Sleep(time.Millisecond)
		}
		if err := db.Checkpoint(); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	checkConsistent(t, db)

	// Crash and recover from the last checkpoint + tail log.
	want := committed.Load()
	db.Crash(true)
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
	tx := begin(t, db2, txn.ReadCommitted)
	rows, err := tx.ScanView("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range rows {
		total += r.Result[0].AsInt()
	}
	mustCommit(t, tx)
	if total != want {
		t.Fatalf("recovered %d rows, committed %d", total, want)
	}
}

// TestRefreshViewUnderLoad refreshes a deferred view while writers churn:
// the refresh sees a consistent snapshot (its base S lock quiesces writers
// briefly) and never errors.
func TestRefreshViewUnderLoad(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyDeferred)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := int64(0)
			for !stop.Load() {
				i++
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return
				}
				if err := tx.Insert("accounts", acctRow(int64(w)*1_000_000+i, i%3, 5)); err != nil {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	for r := 0; r < 10; r++ {
		if _, err := db.RefreshView("branch_totals"); err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	// One final refresh at quiescence must equalize the view exactly.
	db.waitQuiesced()
	if _, err := db.RefreshView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	tx := begin(t, db, txn.ReadCommitted)
	rows, err := tx.ScanView("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	var fromView int64
	for _, r := range rows {
		fromView += r.Result[0].AsInt()
	}
	n := 0
	tx.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true })
	mustCommit(t, tx)
	if fromView != int64(n) {
		t.Fatalf("refreshed view counts %d, table has %d", fromView, n)
	}
}

// TestGhostCleanerRacesWriters hammers group churn with an aggressive
// cleaner; the view must stay exact throughout.
func TestGhostCleanerRacesWriters(t *testing.T) {
	db := openTestDB(t, Options{GhostCleanInterval: time.Millisecond})
	setupBanking(t, db, catalog.StrategyEscrow)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				id := int64(w*10_000 + i)
				branch := int64(i % 2) // two groups, constantly emptied
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return
				}
				if err := tx.Insert("accounts", acctRow(id, branch, 1)); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				tx, err = db.Begin(txn.ReadCommitted)
				if err != nil {
					return
				}
				if err := tx.Delete("accounts", record.Row{record.Int(id)}); err != nil {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	checkConsistent(t, db)
	if db.Metrics().Ghost.Erased == 0 {
		t.Fatal("cleaner never erased a ghost under churn")
	}
}
