// Package workload implements the benchmark workloads of the reconstructed
// evaluation (DESIGN.md §4): a TPC-B-style banking workload (accounts with a
// branch-totals aggregate view — the paper's canonical hot-spot), an
// order-entry workload with skewed product popularity, and concurrent
// drivers that report throughput, latency, and abort statistics.
package workload

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
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
	// ThinkTime simulates a multi-statement transaction: the client holds
	// the transaction open this long after its last update before
	// committing (the paper's interactive setting). Transaction-duration
	// locks — the X-lock baseline's view locks — are held across it;
	// escrow writers overlap it.
	ThinkTime time.Duration
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

// SetupBase creates only the table (the "no view" baseline) and loads rows.
func (w Banking) SetupBase(db *core.DB) error {
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
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

// TellerOp performs one TPC-B-ish transfer: move a random amount between
// two random accounts (touching up to two branches' view rows).
func (w Banking) TellerOp(db *core.DB, rng *rand.Rand) error {
	tx, err := db.Begin(txn.ReadCommitted)
	if err != nil {
		return err
	}
	a := int64(rng.Intn(w.Accounts))
	b := int64(rng.Intn(w.Accounts))
	for b == a { // a self-transfer would double-apply via the second update
		b = int64(rng.Intn(w.Accounts))
	}
	amount := int64(rng.Intn(100) + 1)
	rowA, okA, err := tx.Get("accounts", record.Row{record.Int(a)})
	if err != nil || !okA {
		tx.Rollback()
		return err
	}
	rowB, okB, err := tx.Get("accounts", record.Row{record.Int(b)})
	if err != nil || !okB {
		tx.Rollback()
		return err
	}
	if err := tx.Update("accounts", record.Row{record.Int(a)},
		map[int]record.Value{2: record.Int(rowA[2].AsInt() - amount)}); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Update("accounts", record.Row{record.Int(b)},
		map[int]record.Value{2: record.Int(rowB[2].AsInt() + amount)}); err != nil {
		tx.Rollback()
		return err
	}
	if w.ThinkTime > 0 {
		time.Sleep(w.ThinkTime)
	}
	return tx.Commit()
}

// DepositOp credits one random account (one view row touched).
func (w Banking) DepositOp(db *core.DB, rng *rand.Rand) error {
	tx, err := db.Begin(txn.ReadCommitted)
	if err != nil {
		return err
	}
	a := int64(rng.Intn(w.Accounts))
	row, ok, err := tx.Get("accounts", record.Row{record.Int(a)})
	if err != nil || !ok {
		tx.Rollback()
		return err
	}
	if err := tx.Update("accounts", record.Row{record.Int(a)},
		map[int]record.Value{2: record.Int(row[2].AsInt() + 1)}); err != nil {
		tx.Rollback()
		return err
	}
	if w.ThinkTime > 0 {
		time.Sleep(w.ThinkTime)
	}
	return tx.Commit()
}

// ReadBranchOp reads one branch's view row at the given isolation level.
func (w Banking) ReadBranchOp(db *core.DB, rng *rand.Rand, level txn.Level) error {
	tx, err := db.Begin(level)
	if err != nil {
		return err
	}
	branch := int64(rng.Intn(w.Branches))
	_, _, err = tx.GetViewRow(ViewName, record.Row{record.Int(branch)})
	if err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// ReadBranchSnapshotOp reads one branch's view row on the read-only snapshot
// fast path: no begin/commit logging, no lock-manager traffic, visibility
// resolved against the version chains at the pinned read timestamp.
func (w Banking) ReadBranchSnapshotOp(db *core.DB, rng *rand.Rand) error {
	tx, err := db.BeginTx(context.Background(), core.TxOptions{Isolation: txn.Snapshot, ReadOnly: true})
	if err != nil {
		return err
	}
	branch := int64(rng.Intn(w.Branches))
	_, _, err = tx.GetViewRow(ViewName, record.Row{record.Int(branch)})
	if err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// Op is one benchmark operation; it returns an error on abort.
type Op func(db *core.DB, rng *rand.Rand) error

// RunConcurrent drives clients goroutines, each executing opsPerClient
// operations, and aggregates throughput/latency/abort statistics. Operation
// errors count as aborts (the op rolled back), not failures.
// Runs summarizes one benchmark run.
type Runs struct {
	Ops       int64
	Errors    int64
	Aborts    int64
	Elapsed   time.Duration
	Latencies *metrics.Histogram
}

// Throughput returns operations per second.
func (r Runs) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

func RunConcurrent(db *core.DB, clients, opsPerClient int, seed int64, op Op) Runs {
	var wg sync.WaitGroup
	runs := Runs{Latencies: &metrics.Histogram{}}
	var aborts, errors, ops int64
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			localAborts, localOps := int64(0), int64(0)
			for i := 0; i < opsPerClient; i++ {
				t0 := time.Now()
				err := op(db, rng)
				runs.Latencies.Observe(time.Since(t0))
				localOps++
				if err != nil {
					localAborts++
				}
			}
			mu.Lock()
			aborts += localAborts
			ops += localOps
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	runs.Elapsed = time.Since(start)
	runs.Ops = ops
	runs.Aborts = aborts
	runs.Errors = errors
	return runs
}

// RunConcurrentOps is RunConcurrent with a distinct Op per client (used when
// each client needs private state, e.g. an order-ID range). The number of
// clients is len(ops).
func RunConcurrentOps(db *core.DB, opsPerClient int, seed int64, ops []Op) Runs {
	var wg sync.WaitGroup
	runs := Runs{Latencies: &metrics.Histogram{}}
	var aborts, count int64
	var mu sync.Mutex
	start := time.Now()
	for c, op := range ops {
		wg.Add(1)
		go func(c int, op Op) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			localAborts, localOps := int64(0), int64(0)
			for i := 0; i < opsPerClient; i++ {
				t0 := time.Now()
				err := op(db, rng)
				runs.Latencies.Observe(time.Since(t0))
				localOps++
				if err != nil {
					localAborts++
				}
			}
			mu.Lock()
			aborts += localAborts
			count += localOps
			mu.Unlock()
		}(c, op)
	}
	wg.Wait()
	runs.Elapsed = time.Since(start)
	runs.Ops = count
	runs.Aborts = aborts
	return runs
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
