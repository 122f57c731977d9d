package workload

import (
	"math/rand"
	"testing"
	"time"

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
	t.Cleanup(func() { db.Close() })
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

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if err := w.TellerOp(db, rng); err != nil {
			t.Fatal(err)
		}
		if err := w.DepositOp(db, rng); err != nil {
			t.Fatal(err)
		}
		if err := w.ReadBranchOp(db, rng, txn.ReadCommitted); err != nil {
			t.Fatal(err)
		}
	}
	// Transfers conserve money; deposits add exactly 1 each.
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

func TestBankingSetupBase(t *testing.T) {
	db := openDB(t)
	w := Banking{Accounts: 50, Branches: 5, InitialBalance: 10}
	if err := w.SetupBase(db); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Catalog().View(ViewName); err == nil {
		t.Fatal("base setup should not create the view")
	}
	rng := rand.New(rand.NewSource(1))
	if err := w.TellerOp(db, rng); err != nil {
		t.Fatal(err)
	}
}

func TestRunConcurrent(t *testing.T) {
	db := openDB(t)
	w := Banking{Accounts: 100, Branches: 4, Strategy: catalog.StrategyEscrow, InitialBalance: 100}
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	runs := RunConcurrent(db, 8, 25, 42, w.DepositOp)
	if runs.Ops != 200 {
		t.Fatalf("ops = %d", runs.Ops)
	}
	if runs.Aborts != 0 {
		t.Fatalf("aborts = %d", runs.Aborts)
	}
	if runs.Latencies.Count() != 200 || runs.Throughput() <= 0 {
		t.Fatal("latency/throughput accounting wrong")
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
	op := w.OrderEntry(1_000_000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if err := op(db, rng); err != nil {
			t.Fatal(err)
		}
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

func TestRunsThroughput(t *testing.T) {
	r := Runs{Ops: 500, Elapsed: 2 * time.Second}
	if got := r.Throughput(); got != 250 {
		t.Fatalf("throughput = %v", got)
	}
	if (Runs{}).Throughput() != 0 {
		t.Fatal("zero elapsed should be 0")
	}
}
