package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// setupRollupChain builds the 3-level rollup chain the view-DAG design is
// specified against: order_items → order_totals (per order) →
// customer_totals (per customer) → region_totals (per region), every level
// defined in the named style and maintained with the given strategy.
func setupRollupChain(t *testing.T, db *DB, strategy catalog.Strategy) {
	t.Helper()
	err := db.CreateTable("order_items", []catalog.Column{
		{Name: "item", Kind: record.KindInt64},
		{Name: "order_id", Kind: record.KindInt64},
		{Name: "customer", Kind: record.KindInt64},
		{Name: "region", Kind: record.KindString},
		{Name: "amount", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []catalog.View{
		{Name: "order_totals", Kind: catalog.ViewAggregate, Source: "order_items",
			GroupBy: []string{"order_id", "customer", "region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Arg: expr.NamedCol("amount"), Name: "total"},
			},
			Strategy: strategy},
		{Name: "customer_totals", Kind: catalog.ViewAggregate, Source: "order_totals",
			GroupBy: []string{"customer", "region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggCountRows, Name: "orders"},
				{Func: expr.AggSum, Arg: expr.NamedCol("total"), Name: "total"},
			},
			Strategy: strategy},
		{Name: "region_totals", Kind: catalog.ViewAggregate, Source: "customer_totals",
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggCountRows, Name: "customers"},
				{Func: expr.AggSum, Arg: expr.NamedCol("total"), Name: "total"},
			},
			Strategy: strategy},
	} {
		if err := db.CreateIndexedView(v); err != nil {
			t.Fatal(err)
		}
	}
}

func itemRow(item, order, customer int64, region string, amount int64) record.Row {
	return record.Row{record.Int(item), record.Int(order), record.Int(customer),
		record.Str(region), record.Int(amount)}
}

// scanRegionTotals returns region -> (customers, total).
func scanRegionTotals(t *testing.T, db *DB) map[string][2]int64 {
	t.Helper()
	tx := begin(t, db, txn.ReadCommitted)
	rows, err := tx.ScanView("region_totals")
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	out := make(map[string][2]int64, len(rows))
	for _, r := range rows {
		out[r.Key[0].AsString()] = [2]int64{r.Result[0].AsInt(), r.Result[1].AsInt()}
	}
	return out
}

// TestStackedViewCascade drives the 3-level chain through inserts, an update,
// and a delete, checking the top level after every commit.
func TestStackedViewCascade(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyEscrow)

	tx := begin(t, db, txn.ReadCommitted)
	// Two customers in "east" (orders 1,2), one in "west" (order 3).
	for _, r := range []record.Row{
		itemRow(1, 1, 100, "east", 10),
		itemRow(2, 1, 100, "east", 15),
		itemRow(3, 2, 200, "east", 20),
		itemRow(4, 3, 300, "west", 40),
	} {
		if err := tx.Insert("order_items", r); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	got := scanRegionTotals(t, db)
	if got["east"] != [2]int64{2, 45} || got["west"] != [2]int64{1, 40} {
		t.Fatalf("after inserts: %v", got)
	}

	// Update one item's amount: totals shift, customer counts do not.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Update("order_items", record.Row{record.Int(2)},
		map[int]record.Value{4: record.Int(25)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	got = scanRegionTotals(t, db)
	if got["east"] != [2]int64{2, 55} {
		t.Fatalf("after update: %v", got)
	}

	// Delete west's only item: its order, customer, and region rows all fall
	// out of the chain.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Delete("order_items", record.Row{record.Int(4)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	got = scanRegionTotals(t, db)
	if _, ok := got["west"]; ok {
		t.Fatalf("west survived delete: %v", got)
	}
	checkConsistent(t, db)
}

// TestStackedViewFoldCoalescing asserts the structural ≤1-fold-per-
// (view,group)-per-transaction guarantee: a transaction touching many base
// rows of the same groups folds each stacked group exactly once.
func TestStackedViewFoldCoalescing(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyEscrow)

	before := db.met.Cascade.LevelFolds[1].Load()
	beforeTop := db.met.Cascade.LevelFolds[2].Load()

	// 10 items, 2 customers, 1 region — one commit.
	tx := begin(t, db, txn.ReadCommitted)
	for i := int64(0); i < 10; i++ {
		cust := int64(100 + i%2)
		if err := tx.Insert("order_items", itemRow(i, cust, cust, "east", 7)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Level 1 folds once per touched customer group, level 2 once per region.
	if n := db.met.Cascade.LevelFolds[1].Load() - before; n != 2 {
		t.Fatalf("customer_totals folded %d times, want 2", n)
	}
	if n := db.met.Cascade.LevelFolds[2].Load() - beforeTop; n != 1 {
		t.Fatalf("region_totals folded %d times, want 1", n)
	}
	if db.met.Cascade.Coalesced.Load() == 0 {
		t.Fatal("no cascade contributions coalesced")
	}
	checkConsistent(t, db)
}

// TestGhostCascadeTwoLevels empties a group at the bottom of the chain in one
// transaction: the order row ghosts, and the cascade must retract its
// contribution from both stacked levels (the customer row ghosts too).
func TestGhostCascadeTwoLevels(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyEscrow)

	tx := begin(t, db, txn.ReadCommitted)
	for _, r := range []record.Row{
		itemRow(1, 1, 100, "east", 10),
		itemRow(2, 1, 100, "east", 20),
		itemRow(3, 2, 200, "east", 5),
	} {
		if err := tx.Insert("order_items", r); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	// Empty order 1 (customer 100's only order) in one transaction.
	tx = begin(t, db, txn.ReadCommitted)
	for _, item := range []int64{1, 2} {
		if err := tx.Delete("order_items", record.Row{record.Int(item)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	tx = begin(t, db, txn.ReadCommitted)
	if _, ok, err := tx.GetViewRow("customer_totals", record.Row{record.Int(100), record.Str("east")}); err != nil || ok {
		t.Fatalf("customer 100 still visible after ghost cascade (ok=%v err=%v)", ok, err)
	}
	mustCommit(t, tx)
	got := scanRegionTotals(t, db)
	if got["east"] != [2]int64{1, 5} {
		t.Fatalf("after emptying customer 100: %v", got)
	}
	checkConsistent(t, db)
}

// TestDropMidDAGRejected pins the DAG DDL rules: a view with dependents
// cannot be dropped, the error wraps both public sentinels and names the
// dependent, and dropping leaf-first succeeds.
func TestDropMidDAGRejected(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyEscrow)

	err := db.DropView("customer_totals")
	if err == nil {
		t.Fatal("mid-DAG drop succeeded")
	}
	if !errors.Is(err, ErrViewInUse) || !errors.Is(err, ErrInvalidView) {
		t.Fatalf("drop error misses sentinels: %v", err)
	}
	if !strings.Contains(err.Error(), "region_totals") {
		t.Fatalf("drop error does not name the dependent: %v", err)
	}

	// A stacked view over a missing output column is invalid, and says so.
	err = db.CreateIndexedView(catalog.View{
		Name: "bad", Kind: catalog.ViewAggregate, Source: "customer_totals",
		GroupBy:  []string{"region"},
		Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("nope")}},
		Strategy: catalog.StrategyEscrow,
	})
	if !errors.Is(err, ErrInvalidView) || err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("bad column error: %v", err)
	}

	for _, name := range []string{"region_totals", "customer_totals", "order_totals"} {
		if err := db.DropView(name); err != nil {
			t.Fatalf("drop %s: %v", name, err)
		}
	}
	checkConsistent(t, db)
}

// TestStackedViewConcurrentEscrow hammers the chain with concurrent escrow
// writers; every level must equal its recompute at quiescence.
func TestStackedViewConcurrentEscrow(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyEscrow)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			regions := []string{"east", "west", "north"}
			for i := 0; i < 120; i++ {
				item := int64(w*100_000 + i)
				order := item / 3
				cust := int64(w*10 + i%7)
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return
				}
				if err := tx.Insert("order_items",
					itemRow(item, order, cust, regions[i%3], int64(i%50))); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					continue
				}
				if i%5 == 0 {
					tx, err = db.Begin(txn.ReadCommitted)
					if err != nil {
						return
					}
					if err := tx.Delete("order_items", record.Row{record.Int(item)}); err != nil {
						tx.Rollback()
						continue
					}
					tx.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	checkConsistent(t, db)
}

// TestStackedViewDeferredCascade runs the same chain fully deferred: the
// applier folds each cascade component at one timestamp and every level's
// watermark advances together, so after waiting on the leaf watermark the
// whole chain is exact.
func TestStackedViewDeferredCascade(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyDeferred)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				item := int64(w*100_000 + i)
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return
				}
				if err := tx.Insert("order_items",
					itemRow(item, item/4, int64(i%9), "east", int64(i))); err != nil {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	wg.Wait()
	checkConsistent(t, db) // waits for the applier to drain first
	// The cascade ran inside the applier: the stacked levels folded there.
	if db.met.Cascade.LevelFolds[1].Load() == 0 || db.met.Cascade.LevelFolds[2].Load() == 0 {
		t.Fatal("deferred cascade never folded the stacked levels")
	}
}

// TestEscrowParentDeferredChild mixes tiers: the parent folds at commit, and
// its cascade deltas route to the deferred applier instead of folding inline.
func TestEscrowParentDeferredChild(t *testing.T) {
	db := openTestDB(t, Options{})
	err := db.CreateTable("order_items", []catalog.Column{
		{Name: "item", Kind: record.KindInt64},
		{Name: "region", Kind: record.KindString},
		{Name: "amount", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(catalog.View{
		Name: "region_live", Kind: catalog.ViewAggregate, Source: "order_items",
		GroupBy:  []string{"region"},
		Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("amount"), Name: "total"}},
		Strategy: catalog.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(catalog.View{
		Name: "region_lagged", Kind: catalog.ViewAggregate, Source: "region_live",
		GroupBy:  []string{"region"},
		Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("total"), Name: "total"}},
		Strategy: catalog.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
	tx := begin(t, db, txn.ReadCommitted)
	for i := int64(0); i < 10; i++ {
		if err := tx.Insert("order_items",
			record.Row{record.Int(i), record.Str("east"), record.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	checkConsistent(t, db)
	if db.met.Cascade.DeferredOut.Load() == 0 {
		t.Fatal("no cascade deltas routed to the deferred applier")
	}
}

// TestRefreshViewCascades refreshes the root of a stacked chain and expects
// the refresh to cover the whole subtree in one system transaction.
func TestRefreshViewCascades(t *testing.T) {
	db := openTestDB(t, Options{})
	setupRollupChain(t, db, catalog.StrategyDeferred)

	tx := begin(t, db, txn.ReadCommitted)
	for i := int64(0); i < 30; i++ {
		if err := tx.Insert("order_items", itemRow(i, i/3, i%5, "east", i)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)

	if _, err := db.RefreshView("order_totals"); err != nil {
		t.Fatal(err)
	}
	// Post-refresh, every level is exact immediately: the refresh set every
	// level's watermark at its own commit timestamp.
	got := scanRegionTotals(t, db)
	if got["east"] != [2]int64{5, 435} { // sum 0..29 = 435, 5 customers
		t.Fatalf("after refresh: %v", got)
	}
	// A second refresh at quiescence changes nothing anywhere in the chain.
	db.waitQuiesced()
	n, err := db.RefreshView("order_totals")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("idle cascading refresh changed %d rows", n)
	}
	if _, err := db.RefreshView("missing"); !errors.Is(err, ErrInvalidView) {
		t.Fatalf("refresh of missing view: %v", err)
	}
	checkConsistent(t, db)
}

// TestStackedViewRecovery crashes mid-life and recovers: WAL replay plus the
// recovery-time cascading refresh must restore every level exactly.
func TestStackedViewRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupRollupChain(t, db, catalog.StrategyEscrow)
	tx := begin(t, db, txn.ReadCommitted)
	for i := int64(0); i < 20; i++ {
		if err := tx.Insert("order_items", itemRow(i, i/2, i%4, "east", 3)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	db.Crash(true)

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := scanRegionTotals(t, db2)
	if got["east"] != [2]int64{4, 60} {
		t.Fatalf("after recovery: %v", got)
	}
	checkConsistent(t, db2)
}
