// Banking: the paper's canonical hot-spot scenario end to end.
//
// A TPC-B-style accounts table carries a branch-totals indexed view. Many
// concurrent tellers hammer a handful of branches; under escrow locking they
// commit in parallel, and the demo then crashes the process image
// mid-workload and shows ARIES-style recovery restoring an exactly
// consistent view.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	vtxn "repro"
)

const (
	accounts = 1000
	branches = 4
	tellers  = 8
	deposits = 300 // per teller
)

func main() {
	dir, err := os.MkdirTemp("", "vtxn-banking-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db := setup(dir)

	fmt.Printf("phase 1: %d tellers × %d deposits on %d hot branches (escrow locking)\n",
		tellers, deposits, branches)
	start := time.Now()
	runTellers(db)
	elapsed := time.Since(start)
	m := db.Metrics()
	fmt.Printf("  %d commits in %v (%.0f tx/s), %d view rows folded at commit, 0 blocked writers by design\n",
		m.Engine.Commits, elapsed.Round(time.Millisecond),
		float64(m.Engine.Commits)/elapsed.Seconds(), m.Escrow.FoldRows)
	printTotals(db)

	// Leave an uncommitted transaction hanging and crash.
	fmt.Println("\nphase 2: crash with one transaction in flight...")
	loser, _ := db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	loser.Insert("accounts", vtxn.Row{vtxn.Int(999_999), vtxn.Int(0), vtxn.Int(1_000_000)})
	db.Crash(true) // like a kill -9: no clean shutdown

	start = time.Now()
	db2, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	sum := db2.RecoverySummary()
	fmt.Printf("  recovery in %v: %d records replayed, %d loser transaction(s) undone\n",
		time.Since(start).Round(time.Millisecond), sum.Replayed, sum.Losers)

	if err := db2.CheckConsistency(); err != nil {
		log.Fatalf("POST-RECOVERY INCONSISTENCY: %v", err)
	}
	fmt.Println("  post-recovery consistency check: view == recompute-from-base ✔")
	printTotals(db2)
}

func setup(dir string) *vtxn.DB {
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := db.CreateTable("accounts", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "branch", Kind: vtxn.KindInt64},
		{Name: "balance", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		log.Fatal(err)
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
		log.Fatal(err)
	}
	tx, _ := db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	for i := 0; i < accounts; i++ {
		row := vtxn.Row{vtxn.Int(int64(i)), vtxn.Int(int64(i % branches)), vtxn.Int(100)}
		if err := tx.Insert("accounts", row); err != nil {
			log.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	return db
}

func runTellers(db *vtxn.DB) {
	var wg sync.WaitGroup
	for tlr := 0; tlr < tellers; tlr++ {
		wg.Add(1)
		go func(tlr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tlr)))
			for i := 0; i < deposits; i++ {
				tx, err := db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
				if err != nil {
					log.Fatal(err)
				}
				a := int64(rng.Intn(accounts))
				row, ok, err := tx.Get("accounts", vtxn.Row{vtxn.Int(a)})
				if err != nil || !ok {
					tx.Rollback()
					continue
				}
				if err := tx.Update("accounts", vtxn.Row{vtxn.Int(a)},
					map[int]vtxn.Value{2: vtxn.Int(row[2].AsInt() + 1)}); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					log.Fatal(err)
				}
			}
		}(tlr)
	}
	wg.Wait()
}

func printTotals(db *vtxn.DB) {
	tx, _ := db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	defer tx.Commit()
	rows, err := tx.ScanView("branch_totals")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  branch  accounts  total balance")
	for _, r := range rows {
		fmt.Printf("  %6d  %8d  %13d\n",
			r.Key[0].AsInt(), r.Result[0].AsInt(), r.Result[1].AsInt())
	}
}
