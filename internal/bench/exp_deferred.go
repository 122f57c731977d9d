package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/workload"
)

// RunF9DDeferredApplier (Figure 9D): immediate (escrow) vs deferred-applier
// maintenance on the order-entry workload. Deferred commits skip the view
// fold entirely — the background applier folds coalesced deltas moments
// later — so the experiment reports update throughput alongside the cost of
// that deferral: how long the applier needs to drain to zero lag once the
// load quiesces, how much the coalescer saved, and whether the drained view
// equals a recompute from the base tables.
func RunF9DDeferredApplier(s Scale) (*Table, error) {
	const clients = 8
	perClient := s.div(1000)
	tb := &Table{
		ID:    "F9D",
		Title: "immediate (escrow) vs deferred-applier maintenance",
		Header: []string{"strategy", "update tx/s", "drain at quiesce",
			"c2v p50/p99", "groups applied", "deltas coalesced", "consistent"},
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

		// Drain: wait for the view watermark to reach the commit frontier.
		// Immediate views satisfy the wait at once, so escrow drains in ~0.
		target := db.Metrics().MVCC.Watermark
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		start := time.Now()
		err = db.WaitForViewWatermark(ctx, workload.SalesView, target)
		drain := time.Since(start)
		cancel()
		if err != nil {
			cleanup()
			return nil, err
		}
		m := db.Metrics()
		fresh := viewFreshness(m, workload.SalesView)
		consistent := "yes"
		if err := db.CheckConsistency(); err != nil {
			consistent = fmt.Sprintf("NO: %v", err)
		}
		cleanup()
		if strat == catalog.StrategyDeferred {
			tb.HeadlineName, tb.Headline = "deferred_update_tx_per_sec", runs.Throughput()
			tb.HeadlineFreshP50Ns = fresh.CommitToVisible.P50Ns
			tb.HeadlineFreshP99Ns = fresh.CommitToVisible.P99Ns
		}
		tb.AddRow(strategyName(strat), F(runs.Throughput()), D(drain),
			freshCell(fresh), F(float64(m.Deferred.GroupsApplied)),
			F(float64(m.Deferred.DeltasCoalesced)), consistent)
	}
	tb.Notes = append(tb.Notes,
		"drain = wall time from quiesce until the view watermark reaches the commit frontier",
		"c2v = commit-to-visible latency for the sales view (commit path for escrow, publish→watermark for deferred)",
		"deltas coalesced = folds the applier saved by merging publishes per (view, group)")
	return tb, nil
}
