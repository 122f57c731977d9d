package metrics

import (
	"fmt"
	"net/http"
	"strings"
)

// Handler returns an http.Handler serving the snapshot in Prometheus text
// exposition format (version 0.0.4). It depends only on net/http: latency
// histograms are exported as summaries (quantile labels), counters and
// gauges directly, and lock wait time is attributed per shard.
func Handler(snap func() Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := snap()
		var sb strings.Builder
		writeExposition(&sb, s)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, sb.String())
	})
}

// writeExposition renders one snapshot as Prometheus text.
func writeExposition(sb *strings.Builder, s Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	summary := func(name, help string, h HistSnapshot) {
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s summary\n", name, help, name)
		fmt.Fprintf(sb, "%s{quantile=\"0.5\"} %s\n", name, seconds(h.P50Ns))
		fmt.Fprintf(sb, "%s{quantile=\"0.99\"} %s\n", name, seconds(h.P99Ns))
		fmt.Fprintf(sb, "%s{quantile=\"1\"} %s\n", name, seconds(h.MaxNs))
		fmt.Fprintf(sb, "%s_sum %s\n", name, seconds(h.SumNs))
		fmt.Fprintf(sb, "%s_count %d\n", name, h.Count)
	}

	// Engine-level transaction counters.
	fmt.Fprintf(sb, "# HELP vtxn_uptime_seconds Seconds since the engine instance was opened.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_uptime_seconds gauge\n")
	fmt.Fprintf(sb, "vtxn_uptime_seconds %s\n", seconds(s.Engine.UptimeNs))
	counter("vtxn_txn_commits_total", "User transactions committed.", s.Engine.Commits)
	counter("vtxn_txn_aborts_total", "User transactions rolled back.", s.Engine.Aborts)
	counter("vtxn_txn_system_total", "System transactions (ghost create/erase).", s.Engine.SysTxns)
	counter("vtxn_lock_escalations_total", "Key-lock sets escalated to tree locks.", s.Engine.Escalations)

	// Per-phase transaction timing.
	summary("vtxn_txn_begin_seconds", "BeginTx latency.", s.Txn.Begin)
	summary("vtxn_txn_apply_seconds", "Per-operation WAL append + tree apply latency, sampled one operation in 8.", s.Txn.Apply)
	summary("vtxn_txn_fold_seconds", "Commit-time escrow fold latency.", s.Txn.Fold)
	summary("vtxn_txn_commit_wait_seconds", "Group-commit wait at transaction commit.", s.Txn.CommitWait)

	// Lock manager.
	counter("vtxn_lock_requests_total", "Lock acquisitions requested.", s.Lock.Requests)
	counter("vtxn_lock_waits_total", "Lock acquisitions that blocked.", s.Lock.Waits)
	counter("vtxn_lock_deadlocks_total", "Lock waits aborted as deadlock victims.", s.Lock.Deadlocks)
	counter("vtxn_lock_timeouts_total", "Lock waits aborted by timeout or cancel.", s.Lock.Timeouts)
	counter("vtxn_lock_shard_collisions_total", "Shard-mutex acquisitions that found it held.", s.Lock.Collisions)
	gauge("vtxn_lock_shards", "Lock-manager stripe count.", int64(s.Lock.Shards))
	gauge("vtxn_lock_max_queue_depth", "Deepest wait queue any resource reached.", s.Lock.MaxQueueDepth)
	counter("vtxn_lock_detector_sweeps_total", "Deadlock checks run by lock requests that blocked.", s.Lock.Sweeps)
	summary("vtxn_lock_wait_seconds", "Blocked lock-acquisition wait time.", s.Lock.Wait)
	fmt.Fprintf(sb, "# HELP vtxn_lock_shard_wait_seconds_total Lock wait time attributed to each shard.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_lock_shard_wait_seconds_total counter\n")
	for i, ps := range s.Lock.PerShard {
		fmt.Fprintf(sb, "vtxn_lock_shard_wait_seconds_total{shard=\"%d\"} %s\n", i, seconds(ps.WaitNs))
	}
	fmt.Fprintf(sb, "# HELP vtxn_lock_shard_waits_total Blocked acquisitions resolved on each shard.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_lock_shard_waits_total counter\n")
	for i, ps := range s.Lock.PerShard {
		fmt.Fprintf(sb, "vtxn_lock_shard_waits_total{shard=\"%d\"} %d\n", i, ps.Waits)
	}

	// Escrow folds and pending deltas.
	counter("vtxn_escrow_fold_batches_total", "Commit-time escrow folds.", s.Escrow.FoldBatches)
	counter("vtxn_escrow_fold_rows_total", "View rows folded at commit.", s.Escrow.FoldRows)
	counter("vtxn_escrow_fold_aborts_total", "Commits aborted by a failed fold.", s.Escrow.FoldAborts)
	gauge("vtxn_escrow_fold_batch_max", "Largest rows-per-commit fold.", s.Escrow.FoldBatchMax)
	gauge("vtxn_escrow_pending_rows", "(Transaction, view row) pairs currently carrying unfolded escrow deltas.", s.Escrow.PendingRows)

	// WAL / group commit.
	counter("vtxn_wal_appends_total", "Records appended to the log.", s.WAL.Appends)
	counter("vtxn_wal_group_commit_flushes_total", "Physical group-commit flushes.", s.WAL.Flushes)
	counter("vtxn_wal_group_commit_coalesced_total", "Sync calls satisfied by another committer's flush.", s.WAL.CoalescedSyncs)
	counter("vtxn_wal_group_commit_records_total", "Records made durable by group-commit flushes.", s.WAL.BatchRecords)
	gauge("vtxn_wal_group_commit_batch_max", "Largest group-commit batch.", s.WAL.BatchMax)
	gauge("vtxn_wal_flush_active_ns", "Age of the in-progress group-commit flush (0 when idle).", s.WAL.FlushActiveNs)
	summary("vtxn_wal_flush_seconds", "Group-commit flush latency (write + fsync).", s.WAL.Flush)
	summary("vtxn_wal_fsync_seconds", "fsync latency within a group commit.", s.WAL.Fsync)

	// Ghosts.
	counter("vtxn_ghosts_created_total", "Ghost view rows created by system transactions.", s.Ghost.Created)
	counter("vtxn_ghosts_erased_total", "Ghost view rows erased by the cleaner.", s.Ghost.Erased)
	counter("vtxn_ghost_cleaner_passes_total", "Ghost-cleaner sweeps.", s.Ghost.CleanerPasses)
	gauge("vtxn_ghost_backlog", "Ghost rows remaining after the last cleaner sweep.", s.Ghost.Backlog)

	// Deferred view-maintenance tier.
	counter("vtxn_deferred_published_batches_total", "Commits that published deferred-view deltas.", s.Deferred.PublishedBatches)
	counter("vtxn_deferred_apply_rounds_total", "Applier rounds that folded deferred deltas.", s.Deferred.ApplyRounds)
	counter("vtxn_deferred_groups_applied_total", "(view, group) folds performed by the applier.", s.Deferred.GroupsApplied)
	counter("vtxn_deferred_deltas_coalesced_total", "Cell deltas merged into an already-pending group (folds saved).", s.Deferred.DeltasCoalesced)
	gauge("vtxn_deferred_pending_groups", "(view, group) accumulators awaiting an applier fold.", s.Deferred.PendingGroups)
	gauge("vtxn_deferred_lag_ts", "Oracle read timestamp minus the minimum deferred-view watermark.", int64(s.Deferred.LagTS))
	gauge("vtxn_deferred_staleness_ns", "Age of the oldest unapplied deferred publish (0 when caught up).", s.Deferred.StalenessNs)
	summary("vtxn_deferred_apply_seconds", "Deferred applier round latency.", s.Deferred.Apply)
	fmt.Fprintf(sb, "# HELP vtxn_view_watermark Applied watermark of each deferred view (commit timestamp).\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_watermark gauge\n")
	for _, v := range s.Deferred.Views {
		fmt.Fprintf(sb, "vtxn_view_watermark{view=\"%s\"} %d\n", promLabel(v.View), v.Watermark)
	}

	// Per-view freshness: current staleness gauges and commit-to-visible
	// latency summaries (cardinality bounded by the catalog).
	if s.Freshness.SLONs > 0 {
		gauge("vtxn_freshness_slo_ns", "Configured freshness SLO (0 when unenforced).", s.Freshness.SLONs)
	}
	fmt.Fprintf(sb, "# HELP vtxn_view_staleness_seconds Age of the oldest commit not yet visible in each view (0 when caught up).\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_staleness_seconds gauge\n")
	for _, v := range s.Freshness.Views {
		fmt.Fprintf(sb, "vtxn_view_staleness_seconds{view=\"%s\"} %s\n", promLabel(v.View), seconds(v.StalenessNs))
	}
	fmt.Fprintf(sb, "# HELP vtxn_view_freshness_ns Commit-to-visible latency per view (commit-path fold for escrow views, publish to watermark for deferred).\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_freshness_ns summary\n")
	for _, v := range s.Freshness.Views {
		h := v.CommitToVisible
		lv := promLabel(v.View)
		fmt.Fprintf(sb, "vtxn_view_freshness_ns{view=\"%s\",quantile=\"0.5\"} %d\n", lv, h.P50Ns)
		fmt.Fprintf(sb, "vtxn_view_freshness_ns{view=\"%s\",quantile=\"0.99\"} %d\n", lv, h.P99Ns)
		fmt.Fprintf(sb, "vtxn_view_freshness_ns{view=\"%s\",quantile=\"1\"} %d\n", lv, h.MaxNs)
		fmt.Fprintf(sb, "vtxn_view_freshness_ns_sum{view=\"%s\"} %d\n", lv, h.SumNs)
		fmt.Fprintf(sb, "vtxn_view_freshness_ns_count{view=\"%s\"} %d\n", lv, h.Count)
	}

	// Stacked-view cascades (views over views).
	counter("vtxn_cascade_enqueued_total", "Child-view cell deltas produced by parent view row changes.", s.Cascade.Enqueued)
	counter("vtxn_cascade_coalesced_total", "Cascade deltas merged into an already-pending (view, group) accumulator.", s.Cascade.Coalesced)
	counter("vtxn_cascade_folds_total", "Commit-time folds of stacked views (DAG level >= 1).", s.Cascade.Folds)
	counter("vtxn_cascade_deferred_out_total", "Cascade group deltas routed to the deferred applier.", s.Cascade.DeferredOut)
	fmt.Fprintf(sb, "# HELP vtxn_cascade_level_folds_total Commit-time view folds by DAG level.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_cascade_level_folds_total counter\n")
	for i, n := range s.Cascade.LevelFolds {
		fmt.Fprintf(sb, "vtxn_cascade_level_folds_total{level=\"%d\"} %d\n", i, n)
	}

	// Stall watchdog + flight recorder.
	counter("vtxn_watchdog_detections_total", "Stall signatures detected by the watchdog.", s.Watchdog.Detections)
	fmt.Fprintf(sb, "# HELP vtxn_watchdog_signature_detections_total Watchdog detections by stall signature.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_watchdog_signature_detections_total counter\n")
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"wal-flush\"} %d\n", s.Watchdog.WALStalls)
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"lock-convoy\"} %d\n", s.Watchdog.LockConvoys)
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"escrow-backlog\"} %d\n", s.Watchdog.EscrowStalls)
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"ghost-starvation\"} %d\n", s.Watchdog.GhostStalls)
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"freshness-slo\"} %d\n", s.Watchdog.FreshnessBreaches)
	fmt.Fprintf(sb, "vtxn_watchdog_signature_detections_total{signature=\"scrub-divergence\"} %d\n", s.Watchdog.ScrubDivergences)
	counter("vtxn_flightrec_events_total", "Events recorded by the flight recorder.", s.Flight.Recorded)
	counter("vtxn_flightrec_dumps_total", "Flight-record dumps written.", s.Flight.Dumps)
	gauge("vtxn_flightrec_capacity", "Flight-recorder ring capacity in events.", int64(s.Flight.Capacity))

	// Hot-spot attribution: bounded-cardinality per-group and per-view series.
	// Group-key labels come from the heavy-hitter sketches, so the series
	// count is capped by the sketch capacity regardless of workload.
	fmt.Fprintf(sb, "# HELP vtxn_hot_group_lock_wait_seconds_total Lock wait time attributed to the hottest view group keys (Space-Saving estimate).\n")
	fmt.Fprintf(sb, "# TYPE vtxn_hot_group_lock_wait_seconds_total counter\n")
	for _, g := range s.Hotspots.TopWait {
		fmt.Fprintf(sb, "vtxn_hot_group_lock_wait_seconds_total{view=\"%s\",key=\"%s\"} %s\n",
			promLabel(g.View), promLabel(g.Key), seconds(g.Value))
	}
	fmt.Fprintf(sb, "# HELP vtxn_hot_group_lock_conflicts_total Blocked lock acquisitions attributed to the hottest view group keys.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_hot_group_lock_conflicts_total counter\n")
	for _, g := range s.Hotspots.TopWait {
		fmt.Fprintf(sb, "vtxn_hot_group_lock_conflicts_total{view=\"%s\",key=\"%s\"} %d\n",
			promLabel(g.View), promLabel(g.Key), g.Count)
	}
	fmt.Fprintf(sb, "# HELP vtxn_hot_group_escrow_deltas_total Escrow delta updates attributed to the hottest view group keys (Space-Saving estimate).\n")
	fmt.Fprintf(sb, "# TYPE vtxn_hot_group_escrow_deltas_total counter\n")
	for _, g := range s.Hotspots.TopDelta {
		fmt.Fprintf(sb, "vtxn_hot_group_escrow_deltas_total{view=\"%s\",key=\"%s\"} %d\n",
			promLabel(g.View), promLabel(g.Key), g.Value)
	}
	fmt.Fprintf(sb, "# HELP vtxn_view_fold_rows_total View rows folded at commit, per view.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_fold_rows_total counter\n")
	for _, v := range s.Hotspots.Views {
		fmt.Fprintf(sb, "vtxn_view_fold_rows_total{view=\"%s\"} %d\n", promLabel(v.View), v.RowsFolded)
	}
	fmt.Fprintf(sb, "# HELP vtxn_view_fold_seconds_total Commit-time fold latency accumulated per view.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_fold_seconds_total counter\n")
	for _, v := range s.Hotspots.Views {
		fmt.Fprintf(sb, "vtxn_view_fold_seconds_total{view=\"%s\"} %s\n", promLabel(v.View), seconds(v.FoldNs))
	}
	fmt.Fprintf(sb, "# HELP vtxn_view_wal_bytes_total WAL bytes attributed to each view's maintenance.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_view_wal_bytes_total counter\n")
	for _, v := range s.Hotspots.Views {
		fmt.Fprintf(sb, "vtxn_view_wal_bytes_total{view=\"%s\"} %d\n", promLabel(v.View), v.WALBytes)
	}

	// Online consistency scrubber.
	enabled := int64(0)
	if s.Scrub.Enabled {
		enabled = 1
	}
	gauge("vtxn_scrub_enabled", "Whether the online scrubber is running (1) or disabled (0).", enabled)
	counter("vtxn_scrub_cycles_total", "Completed full scrub passes over every view in the catalog.", s.Scrub.Cycles)
	counter("vtxn_scrub_slices_total", "Verified scrub slices, one whole view each.", s.Scrub.Slices)
	counter("vtxn_scrub_rows_verified_total", "Rows read to verify slices (source recompute plus view compare).", s.Scrub.RowsVerified)
	counter("vtxn_scrub_divergences_total", "View rows found disagreeing with their recompute.", s.Scrub.Divergences)
	counter("vtxn_scrub_snapshot_retries_total", "Watermark pins refused by the prune horizon and retried.", s.Scrub.SnapshotRetries)
	gauge("vtxn_scrub_last_full_pass_unix", "Unix time the most recent full pass completed (0 before the first).", s.Scrub.LastFullPassUnix)
	summary("vtxn_scrub_cycle_seconds", "Full scrub pass duration.", s.Scrub.CycleDur)
	fmt.Fprintf(sb, "# HELP vtxn_scrub_view_coverage_ts Per-view coverage watermark: every group verified at a snapshot timestamp >= this.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_scrub_view_coverage_ts gauge\n")
	for _, v := range s.Scrub.Views {
		fmt.Fprintf(sb, "vtxn_scrub_view_coverage_ts{view=\"%s\"} %d\n", promLabel(v.View), v.CoverageTS)
	}
	fmt.Fprintf(sb, "# HELP vtxn_scrub_view_divergences_total Divergences attributed to each view.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_scrub_view_divergences_total counter\n")
	for _, v := range s.Scrub.Views {
		fmt.Fprintf(sb, "vtxn_scrub_view_divergences_total{view=\"%s\"} %d\n", promLabel(v.View), v.Divergences)
	}

	// Recovery (static per instance).
	gauge("vtxn_recovery_replayed_records", "Log records redone at last restart.", int64(s.Recovery.Replayed))
	gauge("vtxn_recovery_loser_txns", "Transactions rolled back at last restart.", int64(s.Recovery.Losers))
	fmt.Fprintf(sb, "# HELP vtxn_recovery_phase_seconds Duration of each restart phase.\n")
	fmt.Fprintf(sb, "# TYPE vtxn_recovery_phase_seconds gauge\n")
	fmt.Fprintf(sb, "vtxn_recovery_phase_seconds{phase=\"analysis\"} %s\n", seconds(s.Recovery.AnalysisNs))
	fmt.Fprintf(sb, "vtxn_recovery_phase_seconds{phase=\"redo\"} %s\n", seconds(s.Recovery.RedoNs))
	fmt.Fprintf(sb, "vtxn_recovery_phase_seconds{phase=\"undo\"} %s\n", seconds(s.Recovery.UndoNs))
}

// seconds renders nanoseconds as a decimal seconds literal.
func seconds(ns int64) string {
	return fmt.Sprintf("%.9f", float64(ns)/1e9)
}

// promEscaper applies the three escapes the Prometheus text format defines
// inside quoted label values: backslash, double quote, and line feed.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel escapes a label value for the Prometheus text exposition format.
// Decoded group keys are usually printable, but a raw/hex fallback or a
// hostile view name must not smuggle a quote, backslash, newline, or invalid
// UTF-8 into the exposition. Go's %q is close but not identical (it emits
// \xNN and \uNNNN escapes the format does not define), so callers
// interpolate the result between literal quotes with %s instead.
func promLabel(v string) string {
	return promEscaper.Replace(strings.ToValidUTF8(v, "�"))
}
