// Package workload defines the schemas and bulk loaders shared by the crash
// torture tool and the root tests: a TPC-B-style banking workload (accounts
// with a branch-totals aggregate view — the paper's canonical hot spot), an
// order-entry workload with skewed product popularity, and a 3-level rollup
// chain of stacked views.
package workload

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// Banking is the TPC-B-style workload: accounts(id, branch, balance) with a
// branch_totals view (COUNT(*), SUM(balance) GROUP BY branch).
type Banking struct {
	// Accounts is the number of account rows.
	Accounts int
	// Branches is the number of branches (aggregate groups). Fewer branches
	// mean hotter view rows.
	Branches int
	// Strategy selects the view maintenance protocol under test.
	Strategy catalog.Strategy
	// InitialBalance seeds every account.
	InitialBalance int64
}

// ViewName is the banking workload's view.
const ViewName = "branch_totals"

// Setup creates the schema and loads the initial rows.
func (w Banking) Setup(db *core.DB) error {
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateIndexedView(catalog.View{
		Name:        ViewName,
		Kind:        catalog.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
		Strategy: w.Strategy,
	}); err != nil {
		return err
	}
	return w.Load(db)
}

// Load inserts the account rows in batches.
func (w Banking) Load(db *core.DB) error {
	const batch = 500
	for lo := 0; lo < w.Accounts; lo += batch {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			return err
		}
		hi := lo + batch
		if hi > w.Accounts {
			hi = w.Accounts
		}
		for i := lo; i < hi; i++ {
			row := record.Row{
				record.Int(int64(i)),
				record.Int(int64(i % w.Branches)),
				record.Int(w.InitialBalance),
			}
			if err := tx.Insert("accounts", row); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// Zipf returns a Zipf-distributed generator over [0, n) with skew s (s>1;
// larger is more skewed). s<=1 falls back to uniform.
func Zipf(rng *rand.Rand, s float64, n int) func() int {
	if s <= 1 {
		return func() int { return rng.Intn(n) }
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}
