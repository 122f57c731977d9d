package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestScanRowsStreams: a scan that stops after a few rows costs a few rows,
// not the range — on the snapshot path (every entry still carries its chain)
// and at latest alike. Every entry scanRows takes out of the tree is copied,
// so allocations bound the entries visited.
func TestScanRowsStreams(t *testing.T) {
	db := openTestDB(t, Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	const rows = 20000
	batch := make([]record.Row, 0, rows)
	for i := int64(0); i < rows; i++ {
		batch = append(batch, acctRow(i, i%4, 100))
	}
	insertAccounts(t, db, batch...)
	tbl, err := db.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	if db.dirty.Len() < rows {
		t.Fatalf("only %d live chains; the snapshot path would not be exercised", db.dirty.Len())
	}
	for _, ts := range []uint64{db.oracle.ReadTS(), latest} {
		scan := func(limit int) (seen int) {
			err := db.scanRows(tbl.ID, nil, nil, ts, id.None, func([]byte, image) (bool, error) {
				seen++
				return seen < limit, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return seen
		}
		if n := scan(rows + 1); n != rows {
			t.Fatalf("ts %d: full scan returned %d rows, want %d", ts, n, rows)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if n := scan(3); n != 3 {
				t.Fatalf("ts %d: early-stopping scan called back %d times, want 3", ts, n)
			}
		})
		// Two allocations per entry copied out, one batch: anything near the
		// row count means the range was materialised.
		if allocs > 4*scanBatch {
			t.Fatalf("ts %d: a 3-row scan of a %d-row table made %.0f allocations", ts, rows, allocs)
		}
	}
}

// TestCheckReadPathsCatchesDisagreement: a committed version the inline image
// does not reflect is exactly the seam failure the oracle exists for, and the
// report names both paths' values.
func TestCheckReadPathsCatchesDisagreement(t *testing.T) {
	db := openTestDB(t, Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	if err := db.CheckReadPaths(context.Background()); err != nil {
		t.Fatalf("healthy engine: %v", err)
	}
	tbl, err := db.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	key := record.EncodeKey(record.Row{record.Int(1)})
	rec := &wal.Record{Type: wal.TUpdate, Tree: tbl.ID, Key: key, NewVal: record.EncodeRow(acctRow(1, 7, 999))}
	// The put leaves the inline image as it was while its pinned version says
	// otherwise.
	ch, _ := db.tree(tbl.ID).PutPinned(key, record.EncodeRow(acctRow(1, 7, 100)), false, rec, 1)
	// In flight: the entry is skipped, not misreported.
	if err := db.CheckReadPaths(context.Background()); err != nil {
		t.Fatalf("entry with an operation in flight: %v", err)
	}
	ch.Stamp(rec, db.oracle.ReadTS()) // "committed", but the tree never changed
	err = db.CheckReadPaths(context.Background())
	if err == nil {
		t.Fatal("stale inline image went unnoticed")
	}
	for _, want := range []string{"999", "100", "snapshot", "lock-based"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("report %q lacks %q", err, want)
		}
	}
}

// TestScrubNowScales: a full verification pass is linear in the view's size.
// It counts the rows one pass reads rather than timing it: 4x the groups may
// read at most 4.5x the rows, where re-materialising the view or its source
// per slice grows quadratically.
func TestScrubNowScales(t *testing.T) {
	pass := func(groups int64) int64 {
		db := openTestDB(t, Options{MVCCPruneInterval: -1, ScrubInterval: -1})
		if err := db.CreateTable("orders", []catalog.Column{
			{Name: "id", Kind: record.KindInt64},
			{Name: "customer", Kind: record.KindInt64},
			{Name: "amount", Kind: record.KindInt64},
		}, []int{0}); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateIndexedView(catalog.View{
			Name: "customer_totals", Kind: catalog.ViewAggregate, Source: "orders",
			GroupBy:  []string{"customer"},
			Aggs:     []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggSum, Arg: expr.NamedCol("amount")}},
			Strategy: catalog.StrategyDeferred,
		}); err != nil {
			t.Fatal(err)
		}
		tx := begin(t, db, txn.ReadCommitted)
		for i := int64(0); i < groups; i++ {
			if err := tx.Insert("orders", record.Row{record.Int(i), record.Int(i), record.Int(10)}); err != nil {
				t.Fatal(err)
			}
		}
		mustCommit(t, tx)
		if err := db.WaitForViewWatermark(context.Background(), "customer_totals", tx.CommitTS()); err != nil {
			t.Fatal(err)
		}
		before := db.met.Scrub.RowsVerified.Load()
		if n, err := db.ScrubNow(context.Background()); err != nil || n != 0 {
			t.Fatalf("ScrubNow over %d groups = %d divergences, err %v", groups, n, err)
		}
		return db.met.Scrub.RowsVerified.Load() - before
	}
	small, large := pass(4000), pass(16000)
	if small <= 0 || float64(large) > 4.5*float64(small) {
		t.Fatalf("ScrubNow read %d rows at 4k groups and %d at 16k (%.1fx); linear is 4x", small, large, float64(large)/float64(small))
	}
}
