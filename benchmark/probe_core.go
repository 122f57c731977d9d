package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	vtxn "repro"
)

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		warnf("%v", err)
	}
}

// probeCore runs single-threaded insert+commit loops through vtxn with the
// background loops off, on each of the three schemas, and the same quiesced
// row read at Snapshot/ReadOnly and at ReadCommitted.
func probeCore(vals map[string]float64, in *probeInput) error {
	dir := filepath.Join(in.outDir, "probe-core")
	defer removeAll(dir)
	var err error
	fail := func(b *testing.B, e error) {
		err = e
		b.SkipNow()
	}
	// insertCommit is one transaction inserting one row, b.N times, into a
	// fresh database of the given schema. Each round of testing.Benchmark
	// reopens, so ids never collide.
	insertCommit := func(schema schemaKind) (ns, allocs float64) {
		return bench(func(b *testing.B) {
			removeAll(dir)
			db, e := vtxn.Open(dir, loopsOff())
			if e != nil {
				fail(b, e)
			}
			defer db.Close()
			if schema == schemaRollup {
				e = setupRollup(db, nil)
			} else {
				e = setupAccounts(db, schema == schemaAccounts, 0)
			}
			if e != nil {
				fail(b, e)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx, e := db.BeginTx(bg, vtxn.TxOptions{})
				if e != nil {
					fail(b, e)
				}
				src := in.rows[i%len(in.rows)]
				if schema == schemaRollup {
					customer := src[0].AsInt() % customers
					e = tx.Insert(tblItems, vtxn.Row{vtxn.Int(int64(i)), vtxn.Int(int64(i / itemsPerOrder)),
						vtxn.Int(customer), vtxn.Str(regionOf(customer)), vtxn.Int(50)})
				} else {
					e = tx.Insert(tblAccounts, vtxn.Row{vtxn.Int(int64(i)), src[1], src[2]})
				}
				if e == nil {
					e = tx.Commit()
				}
				if e != nil {
					fail(b, e)
				}
			}
			b.StopTimer()
		})
	}
	noview, noviewAllocs := insertCommit(schemaAccountsNoView)
	escrow, escrowAllocs := insertCommit(schemaAccounts)
	deferred, _ := insertCommit(schemaRollup)
	vals["core.insert_commit_noview_ns"] = noview
	vals["core.insert_commit_escrow_ns"] = escrow
	vals["core.insert_commit_deferred_ns"] = deferred
	vals["core.allocs_per_commit_noview"] = noviewAllocs
	vals["core.allocs_per_commit_escrow"] = escrowAllocs
	vals["core.view_cost_ratio"] = ratio(escrow, noview)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}

	removeAll(dir)
	db, err := vtxn.Open(dir, loopsOff())
	if err != nil {
		return err
	}
	defer db.Close()
	const rows = 2000
	if err := setupAccounts(db, true, rows); err != nil {
		return err
	}
	get := func(opts vtxn.TxOptions) float64 {
		ns, _ := bench(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tx, e := db.BeginTx(bg, opts)
				if e != nil {
					fail(b, e)
				}
				if _, ok, e := tx.Get(tblAccounts, in.rows[i%rows][:1]); e != nil || !ok {
					fail(b, fmt.Errorf("get: found %v: %v", ok, e))
				}
				if e := tx.Commit(); e != nil {
					fail(b, e)
				}
			}
		})
		return ns
	}
	vals["mvcc.snapshot_get_ns"] = get(vtxn.TxOptions{Isolation: vtxn.Snapshot, ReadOnly: true})
	vals["mvcc.rc_get_ns"] = get(vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	if err != nil {
		return fmt.Errorf("mvcc probe: %w", err)
	}
	return nil
}
