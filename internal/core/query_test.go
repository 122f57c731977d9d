package core

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

func TestScanTableRange(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	var rows []record.Row
	for i := int64(0); i < 50; i++ {
		rows = append(rows, acctRow(i, i%5, i))
	}
	insertAccounts(t, db, rows...)

	for _, level := range []txn.Level{txn.ReadCommitted, txn.Serializable} {
		tx := begin(t, db, level)
		var got []int64
		err := tx.ScanTable("accounts",
			record.Row{record.Int(10)}, record.Row{record.Int(15)},
			func(r record.Row) bool {
				got = append(got, r[0].AsInt())
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 || got[0] != 10 || got[4] != 14 {
			t.Fatalf("%v: range scan = %v", level, got)
		}
		// Early stop.
		n := 0
		tx.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return n < 3 })
		if n != 3 {
			t.Fatalf("early stop visited %d", n)
		}
		mustCommit(t, tx)
	}
}

// TestAggregateNoViewMatchesView: the aggregate answered from the view
// equals the one computed by scanning the base table, at 1 000 and at 10 000
// base rows. The view answers a group with one lookup, so GetViewRow's
// allocations stay flat as the base grows tenfold; AggregateNoView visits
// every base row, so its allocations grow with the table.
func TestAggregateNoViewMatchesView(t *testing.T) {
	db := openTestDB(t, Options{ScrubInterval: -1, MVCCPruneInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	aggs := []expr.AggSpec{
		{Func: expr.AggCountRows},
		{Func: expr.AggSum, Arg: expr.Col(2)},
	}
	rng := rand.New(rand.NewSource(21))
	var lookupAllocs, scanAllocs []float64
	loaded := int64(0)
	for _, size := range []int64{1000, 10000} {
		var rows []record.Row
		for ; loaded < size; loaded++ {
			rows = append(rows, acctRow(loaded, int64(rng.Intn(7)), int64(rng.Intn(1000))))
		}
		insertAccounts(t, db, rows...)

		tx := beginCleanup(t, db)
		viaView, err := tx.ScanView("branch_totals")
		if err != nil {
			t.Fatal(err)
		}
		viaScan, err := tx.AggregateNoView("accounts", nil, []int{1}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		if len(viaView) != len(viaScan) {
			t.Fatalf("%d rows: view %d groups, scan %d", size, len(viaView), len(viaScan))
		}
		for i := range viaView {
			if record.CompareRows(viaView[i].Key, viaScan[i].Key) != 0 ||
				record.CompareRows(viaView[i].Result, viaScan[i].Result) != 0 {
				t.Fatalf("%d rows, group %d: view %v/%v scan %v/%v", size, i,
					viaView[i].Key, viaView[i].Result, viaScan[i].Key, viaScan[i].Result)
			}
		}
		lookupAllocs = append(lookupAllocs, testing.AllocsPerRun(100, func() {
			if _, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(3)}); err != nil || !ok {
				t.Fatalf("view lookup: %v %v", ok, err)
			}
		}))
		scanAllocs = append(scanAllocs, testing.AllocsPerRun(3, func() {
			if _, err := tx.AggregateNoView("accounts", nil, []int{1}, aggs); err != nil {
				t.Fatal(err)
			}
		}))
		mustCommit(t, tx)
	}
	t.Logf("allocs per query at 1 000 and 10 000 rows: view lookup %.0f, %.0f; base scan %.0f, %.0f",
		lookupAllocs[0], lookupAllocs[1], scanAllocs[0], scanAllocs[1])
	if lookupAllocs[1] > 1.5*lookupAllocs[0] {
		t.Fatalf("a view lookup allocates %.0f at 10 000 rows against %.0f at 1 000: not flat", lookupAllocs[1], lookupAllocs[0])
	}
	if scanAllocs[1] < 5*scanAllocs[0] {
		t.Fatalf("a base scan allocates %.0f at 10 000 rows against %.0f at 1 000: want at least 5x", scanAllocs[1], scanAllocs[0])
	}
}

func TestAggregateNoViewWithFilter(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 5), acctRow(3, 8, 50))
	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	out, err := tx.AggregateNoView("accounts",
		expr.Ge(expr.Col(2), expr.ConstInt(50)), // balance >= 50
		[]int{1},
		[]expr.AggSpec{{Func: expr.AggCountRows}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Result[0].AsInt() != 1 || out[1].Result[0].AsInt() != 1 {
		t.Fatalf("filtered agg = %v", out)
	}
}

func TestScanViewXLockUnderReadCommitted(t *testing.T) {
	// Exercises the momentary-S reread path for views whose rows may hold
	// uncommitted data.
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyXLock)
	insertAccounts(t, db, acctRow(1, 1, 10), acctRow(2, 2, 20))
	rows := scanView(t, db, "branch_totals")
	if len(rows) != 2 || rows[0].Result[1].AsInt() != 10 || rows[1].Result[1].AsInt() != 20 {
		t.Fatalf("xlock view scan = %v", rows)
	}
}

func TestScanViewRange(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	var rows []record.Row
	for i := int64(0); i < 40; i++ {
		rows = append(rows, acctRow(i, i%10, 10))
	}
	insertAccounts(t, db, rows...)

	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	got, err := tx.ScanViewRange("branch_totals",
		record.Row{record.Int(3)}, record.Row{record.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("range scan = %v", got)
	}
	for i, r := range got {
		if r.Key[0].AsInt() != int64(3+i) || r.Result[0].AsInt() != 4 {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Open-ended bounds.
	all, err := tx.ScanViewRange("branch_totals", nil, nil)
	if err != nil || len(all) != 10 {
		t.Fatalf("open scan = %d rows, %v", len(all), err)
	}
	upper, err := tx.ScanViewRange("branch_totals", record.Row{record.Int(8)}, nil)
	if err != nil || len(upper) != 2 {
		t.Fatalf("upper scan = %d rows, %v", len(upper), err)
	}
}

func TestGetViewRowProjection(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(catalog.View{
		Name: "slim", Kind: catalog.ViewProjection, Left: "accounts",
		ProjectCols: []int{0, 2},
	}); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(5, 1, 500))
	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	// Projection views are keyed by the source PK.
	row, ok, err := tx.GetViewRow("slim", record.Row{record.Int(5)})
	if err != nil || !ok || row[1].AsInt() != 500 {
		t.Fatalf("projection get = %v %v %v", row, ok, err)
	}
	if _, ok, _ := tx.GetViewRow("slim", record.Row{record.Int(6)}); ok {
		t.Fatal("missing projection row found")
	}
}

func TestRepeatableReadHoldsRowLocks(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	reader := begin(t, db, txn.RepeatableRead)
	row, _, err := reader.Get("accounts", record.Row{record.Int(1)})
	if err != nil || row[2].AsInt() != 100 {
		t.Fatal(err)
	}
	// A writer updating that row must block until the reader finishes.
	done := make(chan error, 1)
	go func() {
		w, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			done <- err
			return
		}
		if err := w.Update("accounts", record.Row{record.Int(1)},
			map[int]record.Value{2: record.Int(0)}); err != nil {
			w.Rollback()
			done <- err
			return
		}
		done <- w.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("writer did not block on RR reader: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Repeatable: the reader still sees 100.
	row, _, _ = reader.Get("accounts", record.Row{record.Int(1)})
	if row[2].AsInt() != 100 {
		t.Fatalf("RR reread = %d", row[2].AsInt())
	}
	mustCommit(t, reader)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close = %v", err)
	}
	if _, err := db.Begin(txn.ReadCommitted); !errors.Is(err, ErrClosed) {
		t.Fatalf("begin after close = %v", err)
	}
	if err := db.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close = %v", err)
	}
	if err := db.CheckConsistency(); !errors.Is(err, ErrClosed) {
		t.Fatalf("check after close = %v", err)
	}
	if n := db.CleanGhosts(); n != 0 {
		t.Fatalf("clean after close = %d", n)
	}
	if _, err := db.RefreshView("branch_totals"); !errors.Is(err, ErrClosed) {
		t.Fatalf("refresh after close = %v", err)
	}
	// DDL after close fails too.
	if err := db.CreateTable("t", []catalog.Column{{Name: "x", Kind: record.KindInt64}}, []int{0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ddl after close = %v", err)
	}
}

func TestUnknownObjectsError(t *testing.T) {
	db := openTestDB(t, Options{})
	tx := begin(t, db, txn.ReadCommitted)
	defer tx.Rollback()
	if err := tx.Insert("nope", record.Row{record.Int(1)}); err == nil {
		t.Fatal("insert into missing table")
	}
	if _, _, err := tx.Get("nope", record.Row{record.Int(1)}); err == nil {
		t.Fatal("get from missing table")
	}
	if err := tx.ScanTable("nope", nil, nil, nil); err == nil {
		t.Fatal("scan of missing table")
	}
	if _, _, err := tx.GetViewRow("nope", record.Row{record.Int(1)}); err == nil {
		t.Fatal("read of missing view")
	}
	if _, err := tx.ScanView("nope"); err == nil {
		t.Fatal("scan of missing view")
	}
	if _, err := tx.AggregateNoView("nope", nil, nil, nil); err == nil {
		t.Fatal("aggregate over missing table")
	}
}

func TestUpdateNullsOutColumn(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 60))
	// NULLing a balance removes its SUM contribution but keeps COUNT(*).
	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", record.Row{record.Int(1)},
		map[int]record.Value{2: record.Null()}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 2 || sum != 60 {
		t.Fatalf("after NULL update = %d/%d", count, sum)
	}
	checkConsistent(t, db)
}
