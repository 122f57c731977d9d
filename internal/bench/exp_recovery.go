package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// salesAggs is the orders workload's aggregate list.
func salesAggs() []expr.AggSpec {
	return []expr.AggSpec{
		{Func: expr.AggCountRows},
		{Func: expr.AggSum, Arg: expr.Col(2)},
	}
}

// RunT7Ghosts (Table 7): group churn — transactions that create and empty
// aggregate groups. The escrow strategy delegates row creation and erase to
// system transactions (ghosts); the X-lock baseline performs structural
// inserts/deletes inside user transactions, serializing group creators.
func RunT7Ghosts(s Scale) (*Table, error) {
	const clients = 8
	const think = 200 * time.Microsecond
	perClient := s.div(600)
	tb := &Table{
		ID:     "T7",
		Title:  "group-churn throughput: ghost protocol vs direct structural maintenance",
		Header: []string{"strategy", "tx/s", "aborts/1k", "ghosts created", "ghosts erased"},
	}
	for _, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyXLock} {
		db, cleanup, err := tempDB(core.Options{
			LockTimeout:        10 * time.Second,
			GhostCleanInterval: 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		w := workload.Orders{Products: 8, Skew: 0, Strategy: strat}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		// Churn: insert an order then delete it — each group's COUNT crosses
		// zero constantly.
		ops := make([]workload.Op, clients)
		for c := range ops {
			base := int64((c + 1) * 10_000_000)
			next := base
			ops[c] = func(db *core.DB, rng *rand.Rand) error {
				next++
				product := int64(rng.Intn(8))
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					return err
				}
				row := record.Row{record.Int(next), record.Int(product), record.Int(1)}
				if err := tx.Insert("orders", row); err != nil {
					tx.Rollback()
					return err
				}
				time.Sleep(think) // multi-statement transaction
				if err := tx.Commit(); err != nil {
					return err
				}
				tx, err = db.Begin(txn.ReadCommitted)
				if err != nil {
					return err
				}
				if err := tx.Delete("orders", record.Row{record.Int(next)}); err != nil {
					tx.Rollback()
					return err
				}
				time.Sleep(think)
				return tx.Commit()
			}
		}
		runs := workload.RunConcurrentOps(db, perClient, 17, ops)
		gs := db.Metrics().Ghost
		cleanup()
		abortsPerK := float64(0)
		if runs.Ops > 0 {
			abortsPerK = 1000 * float64(runs.Aborts) / float64(runs.Ops)
		}
		// Each op is two transactions.
		tb.AddRow(strategyName(strat), F(2*runs.Throughput()), F(abortsPerK),
			F(float64(gs.Created)), F(float64(gs.Erased)))
	}
	tb.Notes = append(tb.Notes,
		"xlock performs no ghost operations: groups are inserted/deleted inside user transactions")
	return tb, nil
}

// RunT8Recovery (Table 8): crash the database mid-workload and measure
// restart: records replayed, losers undone, recovery time, and — crucially —
// that every view equals recompute-from-base afterwards.
func RunT8Recovery(s Scale) (*Table, error) {
	txnCounts := []int{500, 2_000, 8_000}
	if s.Factor > 1 {
		txnCounts = []int{200, 800, 2_000}
	}
	tb := &Table{
		ID:     "T8",
		Title:  "crash recovery vs log length",
		Header: []string{"committed txns", "replayed records", "losers", "recovery", "views consistent"},
	}
	for _, n := range txnCounts {
		dir, err := os.MkdirTemp("", "vtxnbench-rec-*")
		if err != nil {
			return nil, err
		}
		db, err := core.Open(dir, core.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		w := workload.Banking{Accounts: 500, Branches: 8, Strategy: catalog.StrategyEscrow, InitialBalance: 100}
		if err := w.Setup(db); err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if err := w.DepositOp(db, rng); err != nil {
				db.Close()
				os.RemoveAll(dir)
				return nil, err
			}
		}
		// Leave two losers in flight and crash.
		l1, _ := db.Begin(txn.ReadCommitted)
		l1.Insert("accounts", record.Row{record.Int(1_000_001), record.Int(0), record.Int(9)})
		l2, _ := db.Begin(txn.ReadCommitted)
		l2.Insert("accounts", record.Row{record.Int(1_000_002), record.Int(1), record.Int(9)})
		db.Crash(true)

		start := time.Now()
		db2, err := core.Open(dir, core.Options{})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		recTime := time.Since(start)
		sum := db2.RecoverySummary()
		consistent := "yes"
		if err := db2.CheckConsistency(); err != nil {
			consistent = fmt.Sprintf("NO: %v", err)
		}
		db2.Close()
		os.RemoveAll(dir)
		tb.AddRow(F(float64(n)), F(float64(sum.Replayed)),
			F(float64(sum.Losers)), D(recTime), consistent)
	}
	tb.Notes = append(tb.Notes, "recovery = snapshot load + redo + logical undo of losers")
	return tb, nil
}

// RunF9Deferred (Figure 9): immediate (escrow) vs deferred maintenance —
// deferred updates are cheaper because the commit path skips the view fold;
// immediate maintenance keeps queries exact at every instant. Since the
// background applier now keeps deferred views bounded-stale, the "stale rows
// before refresh" column reports only whatever the applier has not caught up
// with at the moment of the refresh (usually ~0); the benchmark's
// rollup_deferred_write workload measures the applier tier itself.
func RunF9Deferred(s Scale) (*Table, error) {
	const clients = 8
	perClient := s.div(1000)
	tb := &Table{
		ID:    "F9",
		Title: "immediate (escrow) vs deferred maintenance",
		Header: []string{"strategy", "update tx/s", "stale view rows before refresh",
			"refresh cost", "query after refresh"},
	}
	for _, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyDeferred} {
		db, cleanup, err := tempDB(core.Options{})
		if err != nil {
			return nil, err
		}
		w := workload.Orders{Products: 64, Skew: 1.2, Strategy: strat,
			ThinkTime: 200 * time.Microsecond}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		runs := runOrderClients(db, w, clients, perClient)

		// How stale is the view now? (0 for immediate maintenance.)
		stale, err := db.RefreshView(workload.SalesView)
		var refreshCost time.Duration
		if err != nil {
			cleanup()
			return nil, err
		}
		start := time.Now()
		if _, err := db.RefreshView(workload.SalesView); err != nil { // warm second refresh = diff cost floor
			cleanup()
			return nil, err
		}
		refreshCost = time.Since(start)
		queryLat, err := timeQueries(db, 20, func(tx *core.Tx, rng *rand.Rand) error {
			_, _, err := tx.GetViewRow(workload.SalesView, record.Row{record.Int(int64(rng.Intn(64)))})
			return err
		})
		cleanup()
		if err != nil {
			return nil, err
		}
		tb.AddRow(strategyName(strat), F(runs.Throughput()),
			F(float64(stale)), D(refreshCost), D(queryLat))
	}
	tb.Notes = append(tb.Notes,
		"the paper argues for immediate maintenance: staleness is 0 by construction",
		"deferred staleness is bounded by the background applier; benchmark/ rollup_deferred_write measures its drain")
	return tb, nil
}

// RunT10Ablations (Table 10): design-choice ablations — the MIN/MAX
// fallback, lock escalation, and the fsync mode.
func RunT10Ablations(s Scale) (*Table, error) {
	const clients = 8
	perClient := s.div(800)
	tb := &Table{
		ID:     "T10",
		Title:  "ablations (8 writers, 4 hot branches)",
		Header: []string{"variant", "tx/s", "notes"},
	}

	// (a) SUM-only escrow vs SUM+MAX (forces the X-lock fallback).
	for _, withMax := range []bool{false, true} {
		db, cleanup, err := tempDB(core.Options{})
		if err != nil {
			return nil, err
		}
		aggs := []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		}
		name := "escrow view (SUM/COUNT only)"
		if withMax {
			aggs = append(aggs, expr.AggSpec{Func: expr.AggMax, Arg: expr.Col(2)})
			name = "escrow view + MAX (X-lock fallback)"
		}
		if err := db.CreateTable("accounts", []catalog.Column{
			{Name: "id", Kind: record.KindInt64},
			{Name: "branch", Kind: record.KindInt64},
			{Name: "balance", Kind: record.KindInt64},
		}, []int{0}); err != nil {
			cleanup()
			return nil, err
		}
		if err := db.CreateIndexedView(catalog.View{
			Name: workload.ViewName, Kind: catalog.ViewAggregate, Left: "accounts",
			GroupByCols: []int{1}, Aggs: aggs, Strategy: catalog.StrategyEscrow,
		}); err != nil {
			cleanup()
			return nil, err
		}
		w := workload.Banking{Accounts: 1000, Branches: 4, Strategy: catalog.StrategyEscrow,
			InitialBalance: 100, ThinkTime: 300 * time.Microsecond}
		if err := w.Load(db); err != nil {
			cleanup()
			return nil, err
		}
		runs := workload.RunConcurrent(db, clients, perClient, 23, w.DepositOp)
		cleanup()
		note := "E locks, commit-time folds"
		if withMax {
			note = "MIN/MAX is not commutative: whole row falls back to X"
		}
		tb.AddRow(name, F(runs.Throughput()), note)
	}

	// (b) Lock escalation on/off for scan-heavy transactions.
	for _, threshold := range []int{0, 64} {
		db, cleanup, err := tempDB(core.Options{EscalationThreshold: threshold})
		if err != nil {
			return nil, err
		}
		w := workload.Banking{Accounts: 2000, Branches: 4, Strategy: catalog.StrategyEscrow, InitialBalance: 100}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		bulk := func(db *core.DB, rng *rand.Rand) error {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				return err
			}
			// Touch 200 rows: far past the escalation threshold.
			for i := 0; i < 200; i++ {
				a := int64(rng.Intn(2000))
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
			}
			return tx.Commit()
		}
		runs := workload.RunConcurrent(db, 2, s.div(40), 29, bulk)
		m := db.Metrics()
		cleanup()
		name := "escalation off"
		if threshold > 0 {
			name = fmt.Sprintf("escalation at %d key locks", threshold)
		}
		tb.AddRow(name, F(runs.Throughput()),
			fmt.Sprintf("%d escalations, %d lock requests", m.Engine.Escalations, m.Lock.Requests))
	}

	// (c) Fold-latch striping: one global latch vs 128 stripes. With a
	// single stripe, every commit's fold serializes on the same mutex —
	// re-introducing exactly the bottleneck escrow removed.
	for _, stripes := range []int{1, 128} {
		db, cleanup, err := tempDB(core.Options{FoldLatchStripes: stripes})
		if err != nil {
			return nil, err
		}
		w := workload.Banking{Accounts: 1000, Branches: 64, Strategy: catalog.StrategyEscrow,
			InitialBalance: 100, ThinkTime: 100 * time.Microsecond}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		runs := workload.RunConcurrent(db, 16, s.div(600), 37, w.DepositOp)
		cleanup()
		name := fmt.Sprintf("fold latch: %d stripe(s)", stripes)
		tb.AddRow(name, F(runs.Throughput()), "16 writers, 64 groups")
	}

	// (d) Commit durability: buffered (SyncNone) vs fsync-per-group-commit.
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"group commit, no fsync", core.Options{}},
		{"group commit, fsync", core.Options{SyncMode: wal.SyncData}},
	} {
		db, cleanup, err := tempDB(mode.opts)
		if err != nil {
			return nil, err
		}
		w := workload.Banking{Accounts: 1000, Branches: 4, Strategy: catalog.StrategyEscrow, InitialBalance: 100}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		runs := workload.RunConcurrent(db, clients, s.div(400), 31, w.DepositOp)
		cleanup()
		tb.AddRow(mode.name, F(runs.Throughput()), "8 concurrent committers coalesce syncs")
	}
	return tb, nil
}
