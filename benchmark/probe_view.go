package main

import (
	"path/filepath"
	"testing"

	vtxn "repro"
	"repro/internal/view"
	"repro/internal/wal"
)

// probeView compiles the maintenance plan of branch_totals (from a catalog a
// throwaway database resolves) and times the two things it does per changed
// row: compute the row's contributions, and fold deltas into the stored row.
func probeView(vals map[string]float64, in *probeInput) error {
	dir := filepath.Join(in.outDir, "probe-view")
	defer removeAll(dir)
	db, err := vtxn.Open(dir, loopsOff())
	if err != nil {
		return err
	}
	defer db.Close()
	if err := setupAccounts(db, true, 0); err != nil {
		return err
	}
	def, err := db.Catalog().View(viewBranches)
	if err != nil {
		return err
	}
	tbl, err := db.Catalog().Table(tblAccounts)
	if err != nil {
		return err
	}
	m, err := view.Compile(def, tbl, nil)
	if err != nil {
		return err
	}
	rows := in.rows
	vals["view.contributions_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := m.Contributions(rows[i%len(rows)], +1); err != nil {
				b.Fatal(err)
			}
		}
	})
	stored := m.NewGroupRow()
	deltas := []wal.ColDelta{{Col: 0, Int: 1}, {Col: 1, Int: insertBalance}}
	vals["view.apply_fold_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if stored, err = m.ApplyFold(stored, deltas); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}
