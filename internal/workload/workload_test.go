package workload

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/txn"
)

func openDB(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open(t.TempDir(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Close waits for every open transaction, which a failed test may have
	// left behind: crash the instance then rather than hang.
	t.Cleanup(func() {
		if t.Failed() {
			db.Crash(false)
			return
		}
		db.Close()
	})
	return db
}

func TestBankingSetupAndOps(t *testing.T) {
	db := openDB(t)
	w := Banking{Accounts: 200, Branches: 5, Strategy: catalog.StrategyEscrow, InitialBalance: 100}
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	// The view must reflect the initial load.
	tx, _ := db.Begin(txn.ReadCommitted)
	res, ok, err := tx.GetViewRow(ViewName, record.Row{record.Int(0)})
	if err != nil || !ok {
		t.Fatalf("view read: %v %v", ok, err)
	}
	if res[0].AsInt() != 40 || res[1].AsInt() != 4000 {
		t.Fatalf("branch 0 = %v", res)
	}
	tx.Commit()

	// A transfer between neighbouring accounts (two branches) conserves
	// money; a deposit adds exactly 1.
	for i := int64(0); i < 50; i++ {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []struct{ id, delta int64 }{{i, -7}, {i + 1, 7}, {i + 100, 1}} {
			row, ok, err := tx.Get("accounts", record.Row{record.Int(u.id)})
			if err != nil || !ok {
				tx.Rollback()
				t.Fatalf("account %d: %v %v", u.id, ok, err)
			}
			if err := tx.Update("accounts", record.Row{record.Int(u.id)},
				map[int]record.Value{2: record.Int(row[2].AsInt() + u.delta)}); err != nil {
				tx.Rollback()
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx, _ = db.Begin(txn.ReadCommitted)
	rows, err := tx.ScanView(ViewName)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range rows {
		total += r.Result[1].AsInt()
	}
	tx.Commit()
	if total != 200*100+50 {
		t.Fatalf("total balance = %d, want %d", total, 200*100+50)
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestOrdersSetupAndEntry(t *testing.T) {
	db := openDB(t)
	w := Orders{Products: 20, Skew: 1.2, Strategy: catalog.StrategyEscrow, WithJoinView: true}
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadOrders(db, 100, 7); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(txn.ReadCommitted)
	rows, err := tx.ScanView(SalesView)
	if err != nil {
		t.Fatal(err)
	}
	count := int64(0)
	for _, r := range rows {
		count += r.Result[0].AsInt()
	}
	if count != 100 {
		t.Fatalf("orders counted = %d", count)
	}
	details, err := tx.ScanView(JoinView)
	if err != nil {
		t.Fatal(err)
	}
	if len(details) != 100 {
		t.Fatalf("join view rows = %d", len(details))
	}
	// Join view rows carry the product name.
	if details[0].Result[1].Kind() != record.KindString {
		t.Fatalf("join row = %v", details[0].Result)
	}
	tx.Commit()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOrders(t *testing.T) {
	db := openDB(t)
	w := Orders{Products: 10, Skew: 0, Strategy: catalog.StrategyEscrow}
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadOrders(db, 1200, 3); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(txn.ReadCommitted)
	n := 0
	tx.ScanTable("orders", nil, nil, func(record.Row) bool { n++; return true })
	tx.Commit()
	if n != 1200 {
		t.Fatalf("orders = %d", n)
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pick := Zipf(rng, 1.5, 100)
	counts := make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[pick()]++
	}
	if counts[0] < counts[50]*2 {
		t.Fatalf("zipf not skewed: head=%d mid=%d", counts[0], counts[50])
	}
	// Uniform fallback.
	uni := Zipf(rng, 0, 100)
	counts = make([]int, 100)
	for i := 0; i < 10000; i++ {
		counts[uni()]++
	}
	if counts[0] > counts[50]*3 {
		t.Fatalf("uniform fallback skewed: %d vs %d", counts[0], counts[50])
	}
}
