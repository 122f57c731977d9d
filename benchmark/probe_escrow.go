package main

import (
	"testing"

	"repro/internal/escrow"
	"repro/internal/id"
	"repro/internal/record"
)

// probeEscrow times what one insert under an escrow view does to the ledger:
// a pending delta on the group's COUNT and SUM cells, dropped at commit.
func probeEscrow(vals map[string]float64, in *probeInput) {
	ledger := escrow.NewLedger()
	groups := make([]escrow.RowID, hotBranches)
	for i := range groups {
		groups[i] = escrow.RowID{Tree: 2, Key: string(record.EncodeKey(record.Row{record.Int(int64(i))}))}
	}
	vals["escrow.add_discard_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			txn := id.Txn(i + 1)
			row := groups[i%len(groups)]
			ledger.Add(txn, escrow.CellID{Row: row, Col: 0}, escrow.Delta{Int: 1})
			ledger.Add(txn, escrow.CellID{Row: row, Col: 1}, escrow.Delta{Int: insertBalance})
			ledger.Discard(txn)
		}
	})
}
