package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// Rollup is the stacked-view workload: order_items(item, order_id, customer,
// region, amount) feeds a 3-level rollup chain — per-order totals, rolled up
// per customer, rolled up per region — each level an indexed view over the
// one below (DESIGN.md §10). Customer popularity follows a Zipf distribution,
// so the top of the chain concentrates into very few hot groups: the regime
// where cascade coalescing (≤1 fold per view group per transaction) matters.
type Rollup struct {
	// Customers is the number of customers (level-1 groups).
	Customers int
	// Regions is the number of regions (level-2 groups); customers hash onto
	// regions, so a customer's region never changes.
	Regions int
	// Skew is the Zipf parameter for customer popularity (<=1 uniform).
	Skew float64
	// Strategy maintains the base-fed level (order_totals).
	Strategy catalog.Strategy
	// Stacked maintains the stacked levels; zero means same as Strategy.
	Stacked catalog.Strategy
}

// The rollup chain's view names, bottom to top.
const (
	RollupL0 = "order_totals"
	RollupL1 = "customer_totals"
	RollupL2 = "region_totals"
)

// Setup creates the items table and the three chained views, written in the
// named-column definition style.
func (w Rollup) Setup(db *core.DB) error {
	stacked := w.Stacked
	if stacked == 0 {
		stacked = w.Strategy
	}
	if err := db.CreateTable("order_items", []catalog.Column{
		{Name: "item", Kind: record.KindInt64},
		{Name: "order_id", Kind: record.KindInt64},
		{Name: "customer", Kind: record.KindInt64},
		{Name: "region", Kind: record.KindString},
		{Name: "amount", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	for _, v := range []catalog.View{
		{Name: RollupL0, Kind: catalog.ViewAggregate, Source: "order_items",
			GroupBy: []string{"order_id", "customer", "region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggSum, Arg: expr.NamedCol("amount"), Name: "total"},
			},
			Strategy: w.Strategy},
		{Name: RollupL1, Kind: catalog.ViewAggregate, Source: RollupL0,
			GroupBy: []string{"customer", "region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggCountRows, Name: "orders"},
				{Func: expr.AggSum, Arg: expr.NamedCol("total"), Name: "total"},
			},
			Strategy: stacked},
		{Name: RollupL2, Kind: catalog.ViewAggregate, Source: RollupL1,
			GroupBy: []string{"region"},
			Aggs: []expr.AggSpec{
				{Func: expr.AggCountRows, Name: "customers"},
				{Func: expr.AggSum, Arg: expr.NamedCol("total"), Name: "total"},
			},
			Strategy: stacked},
	} {
		if err := db.CreateIndexedView(v); err != nil {
			return err
		}
	}
	return nil
}

// Region returns the region a customer belongs to.
func (w Rollup) Region(customer int64) string {
	return fmt.Sprintf("region-%02d", customer%int64(w.Regions))
}

// ItemRow builds one order_items row. Items bundle three to an order.
func (w Rollup) ItemRow(item, customer, amount int64) record.Row {
	return record.Row{
		record.Int(item),
		record.Int(item / 3),
		record.Int(customer),
		record.Str(w.Region(customer)),
		record.Int(amount),
	}
}

// LoadItems bulk-inserts n items with the workload's popularity skew.
func (w Rollup) LoadItems(db *core.DB, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pick := Zipf(rng, w.Skew, w.Customers)
	const batch = 500
	for lo := 0; lo < n; lo += batch {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			return err
		}
		hi := lo + batch
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if err := tx.Insert("order_items",
				w.ItemRow(int64(i), int64(pick()), int64(rng.Intn(90)+10))); err != nil {
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
