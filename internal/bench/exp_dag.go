package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/workload"
)

// RunDAGRollupChain (view-DAG experiment): order-entry throughput against the
// 3-level rollup chain (order_totals → customer_totals → region_totals,
// DESIGN.md §10), escrow-maintained vs fully deferred. Every insert cascades
// through all three levels, so the experiment reports the cost of topological
// maintenance alongside how much the per-transaction coalescing queue saved
// (stacked folds avoided because several contributions landed in the same
// (view, group)) and whether the whole chain equals a recompute at quiesce.
func RunDAGRollupChain(s Scale) (*Table, error) {
	const clients = 8
	perClient := s.div(800)
	tb := &Table{
		ID:    "DAG",
		Title: "3-level rollup chain: escrow vs deferred cascade maintenance",
		Header: []string{"strategy", "insert tx/s", "c2v p50/p99", "stacked folds",
			"coalesced", "level folds", "consistent"},
	}
	for _, strat := range []catalog.Strategy{catalog.StrategyEscrow, catalog.StrategyDeferred} {
		db, cleanup, err := tempDB(core.Options{})
		if err != nil {
			return nil, err
		}
		w := workload.Rollup{Customers: 64, Regions: 4, Skew: 1.2, Strategy: strat}
		if err := w.Setup(db); err != nil {
			cleanup()
			return nil, err
		}
		ops := make([]workload.Op, clients)
		for c := range ops {
			ops[c] = w.ItemEntry(int64((c + 1) * 10_000_000))
		}
		runs := workload.RunConcurrentOps(db, perClient, 13, ops)

		// Drain the deferred applier so the consistency check and the fold
		// counters see the whole cascade; escrow satisfies the wait at once.
		target := db.Metrics().MVCC.Watermark
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err = db.WaitForViewWatermark(ctx, workload.RollupL2, target)
		cancel()
		if err != nil {
			cleanup()
			return nil, err
		}
		m := db.Metrics()
		fresh := viewFreshness(m, workload.RollupL2)
		consistent := "yes"
		if err := db.CheckConsistency(); err != nil {
			consistent = fmt.Sprintf("NO: %v", err)
		}
		cleanup()
		if strat == catalog.StrategyEscrow {
			tb.HeadlineName, tb.Headline = "rollup_chain_tx_per_sec", runs.Throughput()
			tb.HeadlineFreshP50Ns = fresh.CommitToVisible.P50Ns
			tb.HeadlineFreshP99Ns = fresh.CommitToVisible.P99Ns
		}
		tb.AddRow(strategyName(strat), F(runs.Throughput()), freshCell(fresh),
			F(float64(m.Cascade.Folds)), F(float64(m.Cascade.Coalesced)),
			fmt.Sprintf("%v", m.Cascade.LevelFolds), consistent)
	}
	tb.Notes = append(tb.Notes,
		"every insert feeds order_totals, which feeds customer_totals, which feeds region_totals",
		"c2v = commit-to-visible latency at the chain's top (region_totals)",
		"stacked folds = commit-time (or applier) folds into views whose source is another view",
		"coalesced = cascade contributions merged into an already-queued (view, group) delta")
	return tb, nil
}
