package vtxn_test

import (
	"errors"
	"testing"

	vtxn "repro"
)

// openDB opens a fresh database via the public API only.
func openDB(t *testing.T) *vtxn.DB {
	t.Helper()
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closeAtCleanup(t, db)
	return db
}

func setupPublic(t *testing.T, db *vtxn.DB) {
	t.Helper()
	if err := db.CreateTable("accounts", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "branch", Kind: vtxn.KindInt64},
		{Name: "balance", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name:        "branch_totals",
		Kind:        vtxn.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []vtxn.AggSpec{
			{Func: vtxn.AggCountRows},
			{Func: vtxn.AggSum, Arg: vtxn.Col(2)},
		},
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)

	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := tx.Insert("accounts", vtxn.Row{vtxn.Int(i), vtxn.Int(i % 2), vtxn.Int(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, _ = db.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", vtxn.Row{vtxn.Int(1)})
	if err != nil || !ok {
		t.Fatalf("view read: %v %v", ok, err)
	}
	// Odd ids: 1,3,5,7,9 → count 5, sum 10+30+50+70+90 = 250.
	if res[0].AsInt() != 5 || res[1].AsInt() != 250 {
		t.Fatalf("branch 1 = %v", res)
	}
	rows, err := tx.ScanView("branch_totals")
	if err != nil || len(rows) != 2 {
		t.Fatalf("scan view: %v %v", rows, err)
	}
	tx.Commit()

	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Engine.Commits == 0 || m.Escrow.FoldRows == 0 {
		t.Fatalf("engine %+v, escrow %+v", m.Engine, m.Escrow)
	}
}

func TestPublicAPIErrorsAndValues(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	tx, _ := db.Begin(vtxn.Serializable)
	defer tx.Rollback()
	if err := tx.Insert("accounts", vtxn.Row{vtxn.Null(), vtxn.Int(1), vtxn.Int(1)}); !errors.Is(err, vtxn.ErrSchema) {
		t.Fatalf("null PK err = %v", err)
	}
	if err := tx.Delete("accounts", vtxn.Row{vtxn.Int(404)}); !errors.Is(err, vtxn.ErrNotFound) {
		t.Fatalf("missing delete err = %v", err)
	}
	// Value constructors round-trip via the facade.
	vals := vtxn.Row{vtxn.Bool(true), vtxn.Float(2.5), vtxn.Str("x"), vtxn.Bytes([]byte{1})}
	if vals[0].Kind() != vtxn.KindBool || vals[1].Kind() != vtxn.KindFloat64 ||
		vals[2].Kind() != vtxn.KindString || vals[3].Kind() != vtxn.KindBytes {
		t.Fatal("facade value kinds wrong")
	}
}

func TestPublicAPIExpressionsInViews(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable("events", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "kind", Kind: vtxn.KindString},
		{Name: "weight", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	// A filtered view with a computed aggregate: SUM(weight*2) for heavy
	// events, excluding kind "noise".
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "heavy", Kind: vtxn.ViewAggregate, Left: "events",
		Where: vtxn.And(
			vtxn.Gt(vtxn.Col(2), vtxn.ConstInt(5)),
			vtxn.Not(vtxn.Eq(vtxn.Col(1), vtxn.ConstStr("noise"))),
		),
		GroupByCols: []int{1},
		Aggs:        []vtxn.AggSpec{{Func: vtxn.AggSum, Arg: vtxn.Mul(vtxn.Col(2), vtxn.ConstInt(2))}},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := db.Begin(vtxn.ReadCommitted)
	rows := []vtxn.Row{
		{vtxn.Int(1), vtxn.Str("a"), vtxn.Int(10)},     // in: 20
		{vtxn.Int(2), vtxn.Str("a"), vtxn.Int(3)},      // filtered: weight <= 5
		{vtxn.Int(3), vtxn.Str("noise"), vtxn.Int(50)}, // filtered: noise
		{vtxn.Int(4), vtxn.Str("a"), vtxn.Int(7)},      // in: 14
	}
	for _, r := range rows {
		if err := tx.Insert("events", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = db.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("heavy", vtxn.Row{vtxn.Str("a")})
	if err != nil || !ok || res[0].AsInt() != 34 {
		t.Fatalf("heavy[a] = %v %v %v", res, ok, err)
	}
	if _, ok, _ := tx.GetViewRow("heavy", vtxn.Row{vtxn.Str("noise")}); ok {
		t.Fatal("noise group should not exist")
	}
	tx.Commit()
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupPublic(t, db)
	tx, _ := db.Begin(vtxn.ReadCommitted)
	tx.Insert("accounts", vtxn.Row{vtxn.Int(1), vtxn.Int(0), vtxn.Int(100)})
	tx.Commit()
	db.Crash(true)

	db2, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tx, _ = db2.Begin(vtxn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", vtxn.Row{vtxn.Int(0)})
	if err != nil || !ok || res[1].AsInt() != 100 {
		t.Fatalf("recovered view = %v %v %v", res, ok, err)
	}
	tx.Commit()
	if err := db2.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
