package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

func TestTypeBrokenViewRejectedAtDDL(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.CreateTable("events", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "name", Kind: record.KindString},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	// SUM over a string column must fail at CREATE VIEW, not at first DML.
	err := db.CreateIndexedView(catalog.View{
		Name: "broken", Kind: catalog.ViewAggregate, Left: "events",
		Aggs: []expr.AggSpec{{Func: expr.AggSum, Arg: expr.Col(1)}},
	})
	if err == nil {
		t.Fatal("type-broken view accepted")
	}
	if _, catErr := db.Catalog().View("broken"); catErr == nil {
		t.Fatal("broken view leaked into the catalog")
	}
	// The database remains fully usable — and recoverable.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("events", record.Row{record.Int(1), record.Str("x")}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	checkConsistent(t, db)
}

func TestFailedDDLDoesNotBrickRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	// Attempt a broken view, then a valid one, then crash.
	db.CreateIndexedView(catalog.View{
		Name: "bad", Kind: catalog.ViewAggregate, Left: "accounts",
		Aggs: []expr.AggSpec{{Func: expr.AggSum, Arg: expr.Col(99)}},
	})
	insertAccounts(t, db, acctRow(1, 7, 10))
	db.Crash(true)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery bricked by failed DDL: %v", err)
	}
	defer db2.Close()
	checkConsistent(t, db2)
}

func TestCreateIndexBackfillUniqueViolation(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 100))
	// Two rows share branch=7: a unique index on branch must fail, and the
	// failure must fully roll back (catalog + partially built tree).
	err := db.CreateIndex("uniq_branch", "accounts", []int{1}, true)
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := db.Catalog().Index("uniq_branch"); err == nil {
		t.Fatal("failed index left in catalog")
	}
	// A non-unique one works and is immediately usable for lookups.
	if err := db.CreateIndex("by_branch", "accounts", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, db)
}

func TestDDLUnderConcurrentWriters(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	// Writers churn while a view is created mid-flight: backfill plus
	// subsequent maintenance must together capture every committed row.
	var stop atomic.Bool
	var wg sync.WaitGroup
	var inserted atomic.Int64
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
				id := int64(w)*1_000_000 + i
				if err := tx.Insert("accounts", acctRow(id, id%4, 10)); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					inserted.Add(1)
				}
			}
		}(w)
	}
	// Let some rows land, then create the view concurrently.
	for inserted.Load() < 50 {
	}
	err := db.CreateIndexedView(catalog.View{
		Name: "branch_totals", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
	})
	if err != nil {
		stop.Store(true)
		wg.Wait()
		t.Fatal(err)
	}
	for inserted.Load() < 200 {
	}
	stop.Store(true)
	wg.Wait()
	// The invariant covers both backfilled and post-DDL-maintained rows.
	checkConsistent(t, db)
	tx := begin(t, db, txn.ReadCommitted)
	rows, err := tx.ScanView("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range rows {
		total += r.Result[0].AsInt()
	}
	mustCommit(t, tx)
	if total != inserted.Load() {
		t.Fatalf("view counts %d rows, %d were committed", total, inserted.Load())
	}
}

// TestSchemaReplacedUnderLoad publishes catalogs in a loop (create view,
// create index, drop view) while writers update, a snapshot reader scans a
// view and a poller reads Metrics. Under the race detector it is the test
// that catches a write to a published catalog.
func TestSchemaReplacedUnderLoad(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	const accounts = 16
	rows := make([]record.Row, accounts)
	for i := range rows {
		rows[i] = acctRow(int64(i), int64(i%4), 100)
	}
	insertAccounts(t, db, rows...)

	var stop atomic.Bool
	var steps atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	run := func(step func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := step(); err != nil {
					errs <- err
					return
				}
				steps.Add(1)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		i := int64(0)
		run(func() error { // each writer owns the rows of its parity
			i++
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				return err
			}
			pk := record.Row{record.Int((2*i + int64(w)) % accounts)}
			if err := tx.Update("accounts", pk, map[int]record.Value{2: record.Int(i)}); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		})
	}
	run(func() error {
		tx, err := db.BeginTx(context.Background(), TxOptions{Isolation: txn.Snapshot})
		if err != nil {
			return err
		}
		if _, err := tx.ScanView("branch_totals"); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	})
	run(func() error {
		db.Metrics()
		return nil
	})

	for steps.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		if err := db.CreateIndexedView(catalog.View{
			Name: "extra", Kind: catalog.ViewAggregate, Source: "accounts",
			GroupBy:  []string{"branch"},
			Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("balance")}},
			Strategy: []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyDeferred}[i%2],
		}); err != nil {
			t.Error(err)
			break
		}
		if err := db.CreateIndex(fmt.Sprintf("by_balance_%d", i), "accounts", []int{2}, false); err != nil {
			t.Error(err)
			break
		}
		if err := db.DropView("extra"); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkConsistent(t, db)
}
