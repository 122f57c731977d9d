package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/workload"
)

// RunT1Overhead (Table 1): the cost of immediate view maintenance for a
// single client: update-transaction latency with no view, a projection
// view, an aggregate view, and an aggregate-over-join setup.
func RunT1Overhead(s Scale) (*Table, error) {
	const baseOps = 4000
	ops := s.div(baseOps)
	tb := &Table{
		ID:     "T1",
		Title:  "single-client order-entry latency vs. maintained views",
		Header: []string{"configuration", "ops", "mean", "p99", "ops/s", "overhead"},
	}
	type config struct {
		name  string
		setup func(db *core.DB, w workload.Orders) error
	}
	base := workload.Orders{Products: 100, Skew: 0, Strategy: catalog.StrategyEscrow}
	configs := []config{
		{"no view", func(db *core.DB, w workload.Orders) error {
			return setupOrdersNoView(db, w)
		}},
		{"aggregate view (escrow)", func(db *core.DB, w workload.Orders) error {
			w.Strategy = catalog.StrategyEscrow
			return w.Setup(db)
		}},
		{"aggregate view (xlock)", func(db *core.DB, w workload.Orders) error {
			w.Strategy = catalog.StrategyXLock
			return w.Setup(db)
		}},
		{"aggregate + join views", func(db *core.DB, w workload.Orders) error {
			w.Strategy = catalog.StrategyEscrow
			w.WithJoinView = true
			return w.Setup(db)
		}},
	}
	var baseline float64
	for _, cfg := range configs {
		db, cleanup, err := tempDB(core.Options{})
		if err != nil {
			return nil, err
		}
		if err := cfg.setup(db, base); err != nil {
			cleanup()
			return nil, err
		}
		runs := workload.RunConcurrent(db, 1, ops, 1, base.OrderEntry(1_000_000))
		cleanup()
		tp := runs.Throughput()
		if baseline == 0 {
			baseline = tp
		}
		if cfg.name == "aggregate view (escrow)" {
			tb.HeadlineName, tb.Headline = "escrow_view_ops_per_sec", tp
		}
		overhead := "1.00x"
		if tp > 0 && baseline > 0 {
			overhead = F(baseline/tp) + "x"
		}
		tb.AddRow(cfg.name, F(float64(runs.Ops)), D(runs.Latencies.Mean()),
			D(runs.Latencies.Percentile(0.99)), F(tp), overhead)
	}
	tb.Notes = append(tb.Notes, "overhead is relative to the no-view baseline")
	return tb, nil
}

// setupOrdersNoView creates the orders schema without any view.
func setupOrdersNoView(db *core.DB, w workload.Orders) error {
	noView := w
	noView.WithJoinView = false
	if err := db.CreateTable("products", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "name", Kind: record.KindString},
		{Name: "price", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		return err
	}
	return db.CreateTable("orders", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "product", Kind: record.KindInt64},
		{Name: "qty", Kind: record.KindInt64},
	}, []int{0})
}

// RunF2EscrowScaling (Figure 2, the headline): update throughput vs. number
// of concurrent writers on a hot aggregate view, escrow vs. X-lock.
func RunF2EscrowScaling(s Scale) (*Table, error) {
	writersSweep := []int{1, 2, 4, 8, 16, 32}
	perWriter := s.div(1200)
	const think = 500 * time.Microsecond
	tb := &Table{
		ID:     "F2",
		Title:  "deposit throughput vs writers, 4 hot branches",
		Header: []string{"writers", "escrow tx/s", "xlock tx/s", "escrow/xlock"},
	}
	for _, writers := range writersSweep {
		row := []string{F(float64(writers))}
		var tps [2]float64
		for i, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyXLock} {
			db, cleanup, err := tempDB(core.Options{})
			if err != nil {
				return nil, err
			}
			w := workload.Banking{Accounts: 2000, Branches: 4, Strategy: strat,
				InitialBalance: 1000, ThinkTime: think}
			if err := w.Setup(db); err != nil {
				cleanup()
				return nil, err
			}
			headline := strat == catalog.StrategyEscrow && writers == writersSweep[len(writersSweep)-1]
			var m0 runtime.MemStats
			if headline {
				runtime.ReadMemStats(&m0)
			}
			runs := workload.RunConcurrent(db, writers, perWriter, 7, w.DepositOp)
			if headline {
				var m1 runtime.MemStats
				runtime.ReadMemStats(&m1)
				tb.HeadlineName, tb.Headline = "escrow_tx_per_sec_max_writers", runs.Throughput()
				if runs.Ops > 0 {
					tb.HeadlineAllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(runs.Ops)
				}
				ls := db.Stats().Lock
				tb.HeadlineShards = ls.Shards
				tb.HeadlineCollisions = ls.Collisions
				tb.HeadlineMaxQueue = ls.MaxQueueDepth
				tb.Notes = append(tb.Notes, fmt.Sprintf(
					"lock manager at %d writers: %d shards, %d collisions, max queue depth %d, %d detector sweeps (max %v)",
					writers, ls.Shards, ls.Collisions, ls.MaxQueueDepth, ls.Sweeps, ls.MaxSweep))
				if MetricsSink != nil {
					MetricsSink(db.Metrics())
				}
			}
			cleanup()
			tps[i] = runs.Throughput()
			row = append(row, F(tps[i]))
		}
		ratio := "-"
		if tps[1] > 0 {
			ratio = F(tps[0]/tps[1]) + "x"
		}
		row = append(row, ratio)
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"every deposit updates one of 4 view rows; X locks serialize per row, E locks do not",
		"transactions are multi-statement: 500µs of client work separates the update from commit")
	return tb, nil
}

// RunF3Contention (Figure 3): throughput of 16 writers vs. the number of
// aggregate groups — the curves converge as contention vanishes.
func RunF3Contention(s Scale) (*Table, error) {
	groupsSweep := []int{1, 4, 16, 64, 256, 1024}
	const writers = 16
	perWriter := s.div(600)
	tb := &Table{
		ID:     "F3",
		Title:  "order-entry throughput vs number of product groups (16 writers, uniform)",
		Header: []string{"groups", "escrow tx/s", "xlock tx/s", "escrow/xlock"},
	}
	for _, groups := range groupsSweep {
		row := []string{F(float64(groups))}
		var tps [2]float64
		for i, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyXLock} {
			db, cleanup, err := tempDB(core.Options{})
			if err != nil {
				return nil, err
			}
			w := workload.Orders{Products: groups, Skew: 0, Strategy: strat,
				ThinkTime: 300 * time.Microsecond}
			if err := w.Setup(db); err != nil {
				cleanup()
				return nil, err
			}
			runs := runOrderClients(db, w, writers, perWriter)
			if strat == catalog.StrategyEscrow && groups == 1 {
				tb.HeadlineName, tb.Headline = "escrow_tx_per_sec_1_group", runs.Throughput()
				ls := db.Stats().Lock
				tb.Notes = append(tb.Notes, fmt.Sprintf(
					"lock manager at 1 group: %d collisions, max queue depth %d, %d detector sweeps",
					ls.Collisions, ls.MaxQueueDepth, ls.Sweeps))
			}
			cleanup()
			tps[i] = runs.Throughput()
			row = append(row, F(tps[i]))
		}
		ratio := "-"
		if tps[1] > 0 {
			ratio = F(tps[0]/tps[1]) + "x"
		}
		row = append(row, ratio)
		tb.Rows = append(tb.Rows, row)
	}
	tb.Notes = append(tb.Notes,
		"uniform product popularity: more groups spread writers out and the curves converge")
	return tb, nil
}

// runOrderClients drives clients each with a private order-ID range.
func runOrderClients(db *core.DB, w workload.Orders, clients, perClient int) workload.Runs {
	ops := make([]workload.Op, clients)
	for c := range ops {
		ops[c] = w.OrderEntry(int64((c + 1) * 10_000_000))
	}
	return workload.RunConcurrentOps(db, perClient, 11, ops)
}
