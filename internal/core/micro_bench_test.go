package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// Micro-benchmarks of the engine's hot paths; the experiment-level benches
// live in the repository root's bench_test.go.

func benchDB(b *testing.B, strategy catalog.Strategy) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		b.Fatal(err)
	}
	if strategy != 0 {
		if err := db.CreateIndexedView(catalog.View{
			Name: "branch_totals", Kind: catalog.ViewAggregate, Left: "accounts",
			GroupByCols: []int{1},
			Aggs: []expr.AggSpec{
				{Func: expr.AggCountRows},
				{Func: expr.AggSum, Arg: expr.Col(2)},
			},
			Strategy: strategy,
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkInsertCommitNoView(b *testing.B) {
	db := benchDB(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(txn.ReadCommitted)
		if err := tx.Insert("accounts", acctRowB(int64(i), int64(i%8), 10)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertCommitEscrowView(b *testing.B) {
	db := benchDB(b, catalog.StrategyEscrow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(txn.ReadCommitted)
		if err := tx.Insert("accounts", acctRowB(int64(i), int64(i%8), 10)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertCommitXLockView(b *testing.B) {
	db := benchDB(b, catalog.StrategyXLock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(txn.ReadCommitted)
		if err := tx.Insert("accounts", acctRowB(int64(i), int64(i%8), 10)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViewPointRead(b *testing.B) {
	db := benchDB(b, catalog.StrategyEscrow)
	tx, _ := db.Begin(txn.ReadCommitted)
	for i := 0; i < 1000; i++ {
		tx.Insert("accounts", acctRowB(int64(i), int64(i%8), 10))
	}
	tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(txn.ReadCommitted)
		if _, _, err := tx.GetViewRow("branch_totals", record.Row{record.Int(int64(i % 8))}); err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

func BenchmarkSerializableRangeScan(b *testing.B) {
	db := benchDB(b, 0)
	tx, _ := db.Begin(txn.ReadCommitted)
	for i := 0; i < 2000; i++ {
		tx.Insert("accounts", acctRowB(int64(i), int64(i%8), 10))
	}
	tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := db.Begin(txn.Serializable)
		lo := int64((i * 37) % 1900)
		n := 0
		err := tx.ScanTable("accounts",
			record.Row{record.Int(lo)}, record.Row{record.Int(lo + 50)},
			func(record.Row) bool { n++; return true })
		if err != nil {
			b.Fatal(err)
		}
		tx.Commit()
	}
}

func acctRowB(id, branch, balance int64) record.Row {
	return record.Row{record.Int(id), record.Int(branch), record.Int(balance)}
}

// BenchmarkParallelInsertCommitEscrowView is the ISSUE 1 acceptance
// benchmark: 8 goroutines, each inserting into its own branch (distinct view
// rows, distinct base keys), full insert+commit transactions. Under the
// global-mutex lock manager every lock call serializes; the striped manager
// keeps disjoint branches independent.
func BenchmarkParallelInsertCommitEscrowView(b *testing.B) {
	db := benchDB(b, catalog.StrategyEscrow)
	var nextG atomic.Int64
	b.SetParallelism(8)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := nextG.Add(1)
		i := int64(0)
		for pb.Next() {
			i++
			tx, _ := db.Begin(txn.ReadCommitted)
			if err := tx.Insert("accounts", acctRowB(g*1_000_000_000+i, g, 10)); err != nil {
				b.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
