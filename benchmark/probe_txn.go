package main

import (
	"testing"

	"repro/internal/txn"
)

func probeTxn(vals map[string]float64) {
	oracle := txn.NewOracle()
	vals["txn.commit_ts_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracle.FinishCommit(oracle.AllocateCommitTS())
		}
	})
	vals["txn.snapshot_begin_end_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, handle := oracle.BeginSnapshot()
			oracle.EndSnapshot(handle)
		}
	})
}
