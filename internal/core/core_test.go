package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/txn"
)

// openTestDB opens a fresh database in a temp dir.
func openTestDB(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// setupBanking creates accounts(id, branch, balance) with an escrow-
// maintained branch_totals view: COUNT(*), SUM(balance) GROUP BY branch.
func setupBanking(t *testing.T, db *DB, strategy catalog.Strategy) {
	t.Helper()
	err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	err = db.CreateIndexedView(catalog.View{
		Name:        "branch_totals",
		Kind:        catalog.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
		Strategy: strategy,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func acctRow(id, branch, balance int64) record.Row {
	return record.Row{record.Int(id), record.Int(branch), record.Int(balance)}
}

func mustCommit(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func begin(t *testing.T, db *DB, level txn.Level) *Tx {
	t.Helper()
	tx, err := db.Begin(level)
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

func insertAccounts(t *testing.T, db *DB, rows ...record.Row) {
	t.Helper()
	tx := begin(t, db, txn.ReadCommitted)
	for _, r := range rows {
		if err := tx.Insert("accounts", r); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
}

// branchTotal reads the branch_totals view row for a branch.
func branchTotal(t *testing.T, db *DB, branch int64) (count, sum int64, ok bool) {
	t.Helper()
	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(branch)})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0, 0, false
	}
	if res[1].IsNull() {
		return res[0].AsInt(), 0, true
	}
	return res[0].AsInt(), res[1].AsInt(), true
}

func checkConsistent(t *testing.T, db *DB) {
	t.Helper()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicCRUD(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50), acctRow(3, 8, 30))

	tx := begin(t, db, txn.ReadCommitted)
	row, ok, err := tx.Get("accounts", record.Row{record.Int(2)})
	if err != nil || !ok || row[2].AsInt() != 50 {
		t.Fatalf("Get: %v %v %v", row, ok, err)
	}
	if _, ok, _ := tx.Get("accounts", record.Row{record.Int(99)}); ok {
		t.Fatal("missing row found")
	}
	var scanned []int64
	if err := tx.ScanTable("accounts", nil, nil, func(r record.Row) bool {
		scanned = append(scanned, r[0].AsInt())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != 3 || scanned[0] != 1 || scanned[2] != 3 {
		t.Fatalf("scan = %v", scanned)
	}
	mustCommit(t, tx)

	// Update and delete.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(150)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("accounts", record.Row{record.Int(3)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 2 || sum != 200 {
		t.Fatalf("branch 7 = %d/%d/%v", count, sum, ok)
	}
	if _, _, ok := branchTotal(t, db, 8); ok {
		t.Fatal("branch 8 should be gone (ghost)")
	}
	checkConsistent(t, db)
}

func TestDuplicateKeyAndSchemaErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	if err := tx.Insert("accounts", acctRow(1, 9, 5)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("dup insert err = %v", err)
	}
	if err := tx.Insert("accounts", record.Row{record.Int(2)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("short row err = %v", err)
	}
	if err := tx.Insert("accounts", record.Row{record.Str("x"), record.Int(1), record.Int(1)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("wrong kind err = %v", err)
	}
	if err := tx.Insert("accounts", record.Row{record.Null(), record.Int(1), record.Int(1)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("null PK err = %v", err)
	}
	if err := tx.Delete("accounts", record.Row{record.Int(42)}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing err = %v", err)
	}
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{0: record.Int(9)}); !errors.Is(err, ErrSchema) {
		t.Fatalf("PK update err = %v", err)
	}
}

func TestUniqueSecondaryIndex(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.CreateTable("users", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "email", Kind: record.KindString},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("users_email", "users", []int{1}, true); err != nil {
		t.Fatal(err)
	}
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("users", record.Row{record.Int(1), record.Str("a@x")}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("users", record.Row{record.Int(2), record.Str("a@x")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique violation err = %v", err)
	}
	tx.Rollback()
	// Updating to a taken email also fails; to a fresh one succeeds.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("users", record.Row{record.Int(2), record.Str("b@x")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("users", record.Row{record.Int(2)}, map[int]record.Value{1: record.Str("a@x")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique update err = %v", err)
	}
	tx.Rollback()
}

func TestRollbackUndoesEverything(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(2, 7, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(999)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after rollback err = %v", err)
	}

	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 1 || sum != 100 {
		t.Fatalf("branch 7 after rollback = %d/%d", count, sum)
	}
	tx2 := begin(t, db, txn.ReadCommitted)
	row, ok, _ := tx2.Get("accounts", record.Row{record.Int(1)})
	if !ok || row[2].AsInt() != 100 {
		t.Fatalf("row 1 after rollback = %v", row)
	}
	if _, ok, _ := tx2.Get("accounts", record.Row{record.Int(2)}); ok {
		t.Fatal("rolled-back insert visible")
	}
	mustCommit(t, tx2)
	checkConsistent(t, db)
}

func TestEscrowGhostLifecycle(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// Deleting the group's last row re-ghosts the view row at fold.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Delete("accounts", record.Row{record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if _, _, ok := branchTotal(t, db, 7); ok {
		t.Fatal("empty group visible")
	}
	vtree := db.tree(mustView(t, db, "branch_totals").ID)
	if vtree.GhostCount() != 1 {
		t.Fatalf("ghosts = %d, want 1", vtree.GhostCount())
	}

	// The cleaner erases it.
	if n := db.CleanGhosts(); n != 1 {
		t.Fatalf("CleanGhosts = %d", n)
	}
	if vtree.GhostCount() != 0 {
		t.Fatal("ghost not erased")
	}

	// Re-creating the group works (fresh ghost, fresh sums).
	insertAccounts(t, db, acctRow(2, 7, 42))
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 1 || sum != 42 {
		t.Fatalf("recreated group = %d/%d", count, sum)
	}
	checkConsistent(t, db)

	gs := db.Metrics().Ghost
	if gs.Created < 2 || gs.Erased != 1 {
		t.Fatalf("ghost stats = %+v", gs)
	}
}

// TestGhostCreatedCountsFolds: Ghost.Created counts transitions into the
// ghost state, not ghost lifetimes. Under escrow a new group is created as a
// ghost by a system transaction, filled by the commit fold and emptied by a
// later fold: two creations, one erase. Under deferred no ghost is
// pre-created at DML time, so the applier's emptying fold is the one
// creation.
func TestGhostCreatedCountsFolds(t *testing.T) {
	for _, c := range []struct {
		strategy catalog.Strategy
		created  int64
	}{
		{catalog.StrategyEscrow, 2},
		{catalog.StrategyDeferred, 1},
	} {
		strategy := c.strategy
		t.Run(strategy.String(), func(t *testing.T) {
			db := openTestDB(t, Options{})
			setupBanking(t, db, strategy)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			drain := func(tx *Tx) {
				t.Helper()
				if strategy != catalog.StrategyDeferred {
					return
				}
				if err := db.WaitForViewWatermark(ctx, "branch_totals", tx.CommitTS()); err != nil {
					t.Fatal(err)
				}
			}
			tx := begin(t, db, txn.ReadCommitted)
			if err := tx.Insert("accounts", acctRow(1, 7, 100)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			drain(tx)
			tx = begin(t, db, txn.ReadCommitted)
			if err := tx.Delete("accounts", record.Row{record.Int(1)}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
			drain(tx)
			db.CleanGhosts()

			g := db.Metrics().Ghost
			if g.Created != c.created || g.Erased != 1 {
				t.Fatalf("ghosts created %d, erased %d: want %d and 1", g.Created, g.Erased, c.created)
			}
		})
	}
}

func mustView(t *testing.T, db *DB, name string) *catalog.View {
	t.Helper()
	v, err := db.Catalog().View(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAbortedTxnLeavesGhostOnly(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)

	// A transaction creates a brand-new group then aborts: the ghost row
	// remains (committed by its system transaction) but stays invisible.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(1, 99, 5)); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if _, _, ok := branchTotal(t, db, 99); ok {
		t.Fatal("aborted group visible")
	}
	vtree := db.tree(mustView(t, db, "branch_totals").ID)
	if vtree.GhostCount() != 1 {
		t.Fatalf("ghosts = %d, want 1 (sys txn survives user abort)", vtree.GhostCount())
	}
	if n := db.CleanGhosts(); n != 1 {
		t.Fatalf("CleanGhosts = %d", n)
	}
	checkConsistent(t, db)
}

func TestXLockStrategyCorrectness(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyXLock)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50), acctRow(3, 8, 30))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("accounts", record.Row{record.Int(3)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 2 || sum != 60 {
		t.Fatalf("branch 7 = %d/%d", count, sum)
	}
	if _, _, ok := branchTotal(t, db, 8); ok {
		t.Fatal("branch 8 should be physically deleted under xlock strategy")
	}
	if g := db.tree(mustView(t, db, "branch_totals").ID).GhostCount(); g != 0 {
		t.Fatalf("xlock strategy left %d ghosts", g)
	}
	checkConsistent(t, db)
}

func TestXLockRollback(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyXLock)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(2, 7, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", acctRow(3, 9, 5)); err != nil { // new group
		t.Fatal(err)
	}
	tx.Rollback()
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 1 || sum != 100 {
		t.Fatalf("branch 7 = %d/%d", count, sum)
	}
	if _, _, ok := branchTotal(t, db, 9); ok {
		t.Fatal("rolled-back group visible")
	}
	checkConsistent(t, db)
}

func TestMinMaxMaintenance(t *testing.T) {
	db := openTestDB(t, Options{})
	err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// MAX forces the X-lock fallback even under the escrow strategy.
	err = db.CreateIndexedView(catalog.View{
		Name:        "branch_extremes",
		Kind:        catalog.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggMax, Arg: expr.Col(2)},
			{Func: expr.AggMin, Arg: expr.Col(2)},
		},
		Strategy: catalog.StrategyEscrow,
	})
	if err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50), acctRow(3, 7, 200))

	get := func() (max, min int64) {
		tx := begin(t, db, txn.ReadCommitted)
		defer tx.Rollback()
		res, ok, err := tx.GetViewRow("branch_extremes", record.Row{record.Int(7)})
		if err != nil || !ok {
			t.Fatalf("view read: %v %v", ok, err)
		}
		return res[1].AsInt(), res[2].AsInt()
	}
	if max, min := get(); max != 200 || min != 50 {
		t.Fatalf("max/min = %d/%d", max, min)
	}
	// Deleting the current max forces a group recompute.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Delete("accounts", record.Row{record.Int(3)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if max, min := get(); max != 100 || min != 50 {
		t.Fatalf("after delete max/min = %d/%d", max, min)
	}
	// Update that moves the min. MIN/MAX do not commute, so the writer holds
	// the group's row under an X lock, never an E lock.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", record.Row{record.Int(2)}, map[int]record.Value{2: record.Int(5)}); err != nil {
		t.Fatal(err)
	}
	group := lock.KeyResource(mustView(t, db, "branch_extremes").ID, record.EncodeKey(record.Row{record.Int(7)}))
	if held := db.lm.HeldMode(tx.t.ID, group); held != lock.ModeX {
		t.Fatalf("a MIN/MAX view writer holds %v on its group's row, want X", held)
	}
	mustCommit(t, tx)
	if max, min := get(); max != 100 || min != 5 {
		t.Fatalf("after update max/min = %d/%d", max, min)
	}
	checkConsistent(t, db)
}

func TestProjectionViewMaintenance(t *testing.T) {
	db := openTestDB(t, Options{})
	err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	err = db.CreateIndexedView(catalog.View{
		Name:        "rich",
		Kind:        catalog.ViewProjection,
		Left:        "accounts",
		Where:       expr.Ge(expr.Col(2), expr.ConstInt(100)),
		ProjectCols: []int{0, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50))

	rows := scanView(t, db, "rich")
	if len(rows) != 1 || rows[0].Result[0].AsInt() != 1 {
		t.Fatalf("rich = %v", rows)
	}
	// Update moves account 2 into the view and account 1 out.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", record.Row{record.Int(2)}, map[int]record.Value{2: record.Int(500)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	rows = scanView(t, db, "rich")
	if len(rows) != 1 || rows[0].Result[0].AsInt() != 2 || rows[0].Result[1].AsInt() != 500 {
		t.Fatalf("rich after update = %v", rows)
	}
	checkConsistent(t, db)
}

func scanView(t *testing.T, db *DB, name string) []ViewRow {
	t.Helper()
	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	rows, err := tx.ScanView(name)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestJoinViewMaintenance(t *testing.T) {
	db := openTestDB(t, Options{})
	for _, ddl := range []func() error{
		func() error {
			return db.CreateTable("accounts", []catalog.Column{
				{Name: "id", Kind: record.KindInt64},
				{Name: "branch", Kind: record.KindInt64},
				{Name: "balance", Kind: record.KindInt64},
			}, []int{0})
		},
		func() error {
			return db.CreateTable("branches", []catalog.Column{
				{Name: "id", Kind: record.KindInt64},
				{Name: "region", Kind: record.KindString},
			}, []int{0})
		},
		// Index on the join column accelerates right-side lookups.
		func() error { return db.CreateIndex("accounts_branch", "accounts", []int{1}, false) },
		func() error {
			return db.CreateIndexedView(catalog.View{
				Name: "region_totals", Kind: catalog.ViewAggregate,
				Left: "accounts", Right: "branches",
				JoinLeftCol: 1, JoinRightCol: 3, // accounts.branch = branches.id (source col 3)
				GroupByCols: []int{4}, // branches.region (source col 4)
				Aggs:        []expr.AggSpec{{Func: expr.AggSum, Arg: expr.Col(2)}},
			})
		},
	} {
		if err := ddl(); err != nil {
			t.Fatal(err)
		}
	}
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("branches", record.Row{record.Int(7), record.Str("west")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("branches", record.Row{record.Int(8), record.Str("east")}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50), acctRow(3, 8, 30))

	rows := scanView(t, db, "region_totals")
	if len(rows) != 2 {
		t.Fatalf("region_totals = %v", rows)
	}
	// Sorted by key: east then west.
	if rows[0].Key[0].AsString() != "east" || rows[0].Result[0].AsInt() != 30 {
		t.Fatalf("east = %v", rows[0])
	}
	if rows[1].Key[0].AsString() != "west" || rows[1].Result[0].AsInt() != 150 {
		t.Fatalf("west = %v", rows[1])
	}

	// Deleting a branch removes its accounts' contributions (they no longer
	// join); deleting an account shrinks its region.
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Delete("accounts", record.Row{record.Int(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("branches", record.Row{record.Int(8)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	rows = scanView(t, db, "region_totals")
	if len(rows) != 1 || rows[0].Key[0].AsString() != "west" || rows[0].Result[0].AsInt() != 100 {
		t.Fatalf("after deletes = %v", rows)
	}
	checkConsistent(t, db)
}

func TestGroupKeyColumnForJoinView(t *testing.T) {
	// Sanity check of the fixture above: branches.region is source column 4
	// (3 account columns + 1).
	db := openTestDB(t, Options{})
	_ = db
}

func TestDeferredViewApplierConvergence(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyDeferred)

	// The commit returns before the view is maintained; waiting for the
	// view watermark to reach the commit's timestamp is how a reader sees its
	// own writes.
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(1, 7, 100)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	ts := tx.CommitTS()
	if ts == 0 {
		t.Fatal("committed transaction has no commit timestamp")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := db.WaitForViewWatermark(ctx, "branch_totals", ts); err != nil {
		t.Fatal(err)
	}
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 1 || sum != 100 {
		t.Fatalf("after apply = %d/%d/%v", count, sum, ok)
	}
	wm, err := db.ViewWatermark("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	if wm < ts {
		t.Fatalf("watermark %d below waited-for commit ts %d", wm, ts)
	}

	// More churn converges too, and the watermark only moves forward.
	insertAccounts(t, db, acctRow(2, 7, 50), acctRow(3, 8, 1))
	tx = begin(t, db, txn.ReadCommitted)
	if err := tx.Delete("accounts", record.Row{record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := db.WaitForViewWatermark(ctx, "branch_totals", tx.CommitTS()); err != nil {
		t.Fatal(err)
	}
	count, sum, _ = branchTotal(t, db, 7)
	if count != 1 || sum != 50 {
		t.Fatalf("after churn = %d/%d", count, sum)
	}
	wm2, err := db.ViewWatermark("branch_totals")
	if err != nil {
		t.Fatal(err)
	}
	if wm2 < wm {
		t.Fatalf("watermark went backwards: %d -> %d", wm, wm2)
	}

	// Refresh still works against a caught-up deferred view: it is a no-op.
	n, err := db.RefreshView("branch_totals")
	if err != nil || n != 0 {
		t.Fatalf("refresh of converged view: %d, %v", n, err)
	}
	// And CheckConsistency now verifies deferred views after draining.
	checkConsistent(t, db)
}

func TestDeferredViewValidation(t *testing.T) {
	db := openTestDB(t, Options{})
	err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	// MIN/MAX has no commutative fold: deferred maintenance must refuse it.
	err = db.CreateIndexedView(catalog.View{
		Name: "branch_max", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs:        []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggMax, Arg: expr.Col(2)}},
		Strategy:    catalog.StrategyDeferred,
	})
	if !errors.Is(err, catalog.ErrInvalid) {
		t.Fatalf("deferred MIN/MAX view: %v", err)
	}
	// Projections have no fold arithmetic at all.
	err = db.CreateIndexedView(catalog.View{
		Name: "acct_proj", Kind: catalog.ViewProjection, Left: "accounts",
		ProjectCols: []int{0, 2}, Strategy: catalog.StrategyDeferred,
	})
	if !errors.Is(err, catalog.ErrInvalid) {
		t.Fatalf("deferred projection view: %v", err)
	}
}

func TestCreateViewBackfill(t *testing.T) {
	db := openTestDB(t, Options{})
	err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 8, 50))
	// View created after data exists must be backfilled.
	err = db.CreateIndexedView(catalog.View{
		Name: "branch_totals", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 1 || sum != 100 {
		t.Fatalf("backfilled branch 7 = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db)

	// DropView clears it.
	if err := db.DropView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Catalog().View("branch_totals"); err == nil {
		t.Fatal("view still in catalog")
	}
}

func TestSerializableScanBlocksPhantoms(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// A serializable scan holds a table S lock; a writer must wait.
	reader := begin(t, db, txn.Serializable)
	n := 0
	if err := reader.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	writerDone := make(chan error, 1)
	go func() {
		w := begin(t, db, txn.ReadCommitted)
		err := w.Insert("accounts", acctRow(2, 7, 1))
		if err == nil {
			err = w.Commit()
		} else {
			w.Rollback()
		}
		writerDone <- err
	}()
	select {
	case err := <-writerDone:
		t.Fatalf("writer finished during serializable reader: %v", err)
	default:
	}
	// Rescan sees the same rows (repeatable).
	n2 := 0
	reader.ScanTable("accounts", nil, nil, func(record.Row) bool { n2++; return true })
	if n2 != n {
		t.Fatalf("serializable rescan saw %d, first %d", n2, n)
	}
	mustCommit(t, reader)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, db)
}

func TestLockEscalation(t *testing.T) {
	db := openTestDB(t, Options{EscalationThreshold: 5})
	setupBanking(t, db, catalog.StrategyEscrow)
	var rows []record.Row
	for i := int64(1); i <= 20; i++ {
		rows = append(rows, acctRow(i, i%3, 10))
	}
	insertAccounts(t, db, rows...)
	if db.Metrics().Engine.Escalations == 0 {
		t.Fatal("no escalation happened")
	}
	checkConsistent(t, db)
}

func TestCheckpointAndReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 8, 50))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint work lands in the new generation's log.
	insertAccounts(t, db, acctRow(3, 7, 25))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx := begin(t, db2, txn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(7)})
	if err != nil || !ok || res[0].AsInt() != 2 || res[1].AsInt() != 125 {
		t.Fatalf("after reopen: %v %v %v", res, ok, err)
	}
	mustCommit(t, tx)
	checkConsistent(t, db2)
}
