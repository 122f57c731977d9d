package workload

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// Orders is the order-entry workload: products(id, name, price) and
// orders(id, product, qty), with a sales-by-product aggregate view
// (COUNT(*), SUM(qty) GROUP BY product). Product popularity follows a Zipf
// distribution, so a few view rows are very hot — the contention regime the
// paper's escrow locks target.
type Orders struct {
	// Products is the number of products (aggregate groups).
	Products int
	// Skew is the Zipf parameter for product popularity (<=1 uniform).
	Skew float64
	// Strategy selects the view maintenance protocol under test.
	Strategy catalog.Strategy
	// WithJoinView additionally creates a projection join view
	// (order × product), exercising join maintenance.
	WithJoinView bool
}

// SalesView is the orders workload's aggregate view name.
const SalesView = "sales_by_product"

// JoinView is the optional order-details join view name.
const JoinView = "order_details"

// Setup creates schema (+views) and loads the product rows.
func (w Orders) Setup(db *core.DB) error {
	if err := db.CreateTable("products", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "name", Kind: record.KindString},
		{Name: "price", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateTable("orders", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "product", Kind: record.KindInt64},
		{Name: "qty", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	if err := db.CreateIndex("orders_product", "orders", []int{1}, false); err != nil {
		return err
	}
	if err := db.CreateIndexedView(catalog.View{
		Name:        SalesView,
		Kind:        catalog.ViewAggregate,
		Left:        "orders",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
		Strategy: w.Strategy,
	}); err != nil {
		return err
	}
	if w.WithJoinView {
		// orders(id, product, qty) ⋈ products(id, name, price):
		// source row = [o.id, o.product, o.qty, p.id, p.name, p.price].
		if err := db.CreateIndexedView(catalog.View{
			Name:         JoinView,
			Kind:         catalog.ViewProjection,
			Left:         "orders",
			Right:        "products",
			JoinLeftCol:  1,
			JoinRightCol: 3,
			ProjectCols:  []int{0, 4, 2, 5}, // order id, product name, qty, price
		}); err != nil {
			return err
		}
	}
	tx, err := db.Begin(txn.ReadCommitted)
	if err != nil {
		return err
	}
	for p := 0; p < w.Products; p++ {
		row := record.Row{
			record.Int(int64(p)),
			record.Str(productName(p)),
			record.Int(int64(10 + p%90)),
		}
		if err := tx.Insert("products", row); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}

func productName(p int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	return "product-" + string(letters[p%26]) + string(letters[(p/26)%26])
}

// LoadOrders bulk-inserts n orders with the workload's popularity skew.
func (w Orders) LoadOrders(db *core.DB, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	pick := Zipf(rng, w.Skew, w.Products)
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
			row := record.Row{
				record.Int(int64(i)),
				record.Int(int64(pick())),
				record.Int(int64(rng.Intn(5) + 1)),
			}
			if err := tx.Insert("orders", row); err != nil {
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
