// Package escrow holds a transaction's pending signed deltas against
// aggregate view rows.
//
// Following DESIGN.md §5, the B-tree row always stores the last *committed*
// aggregate values. A transaction updating an aggregate under an E lock
// records its deltas in its own Pending set; at commit the engine folds them
// into the row (logging one EscrowFold record per row) and at abort the set
// is simply dropped — the logical undo of the paper realized without ever
// exposing uncommitted values to readers. The E lock is the only state other
// transactions need to see, so nothing here is shared between transactions.
package escrow

import "repro/internal/id"

// RowID names one aggregate view row.
type RowID struct {
	Tree id.Tree
	Key  string
}

// CellID names one aggregate column of one view row.
type CellID struct {
	Row RowID
	Col uint32
}

// Delta is a signed change to a cell. Int and Float accumulate
// independently; an int-typed aggregate uses Int, a float-typed one Float.
type Delta struct {
	Int   int64
	Float float64
}

// IsZero reports whether the delta changes nothing.
func (d Delta) IsZero() bool { return d.Int == 0 && d.Float == 0 }
