package metrics

import "time"

// Snapshot is the structured result of DB.Metrics(): every engine counter and
// latency summary at one instant. The JSON encoding is a stable schema —
// field names are part of the public API and golden-tested; only additions
// are allowed.
type Snapshot struct {
	Engine    EngineSnapshot    `json:"engine"`
	Txn       TxnSnapshot       `json:"txn"`
	Lock      LockSnapshot      `json:"lock"`
	Escrow    EscrowSnapshot    `json:"escrow"`
	WAL       WALSnapshot       `json:"wal"`
	Ghost     GhostSnapshot     `json:"ghosts"`
	Recovery  RecoverySnapshot  `json:"recovery"`
	Watchdog  WatchdogSnapshot  `json:"watchdog"`
	Flight    FlightSnapshot    `json:"flightrec"`
	Hotspots  HotspotsSnapshot  `json:"hotspots"`
	MVCC      MVCCSnapshot      `json:"mvcc"`
	Deferred  DeferredSnapshot  `json:"deferred"`
	Cascade   CascadeSnapshot   `json:"cascade"`
	Freshness FreshnessSnapshot `json:"freshness"`
	Scrub     ScrubSnapshot     `json:"scrub"`
}

// EngineSnapshot are the engine-level transaction counters, plus the
// instance clock: when this snapshot was cut and how long the engine had
// been open. External scrapers divide counter deltas by timestamp deltas to
// get rates without trusting their own scrape clock.
type EngineSnapshot struct {
	Commits     int64 `json:"commits"`
	Aborts      int64 `json:"aborts"`
	SysTxns     int64 `json:"sys_txns"`
	Escalations int64 `json:"escalations"`
	// UptimeNs is nanoseconds since DB.Open returned.
	UptimeNs int64 `json:"uptime_ns"`
	// SnapshotUnixNs is the wall-clock UnixNano at which the snapshot was cut.
	SnapshotUnixNs int64 `json:"snapshot_unix_ns"`
}

// TxnSnapshot summarizes the per-phase transaction timing histograms.
type TxnSnapshot struct {
	Begin      HistSnapshot `json:"begin"`
	LockWait   HistSnapshot `json:"lock_wait"`
	Apply      HistSnapshot `json:"apply"`
	Fold       HistSnapshot `json:"fold"`
	CommitWait HistSnapshot `json:"commit_wait"`
}

// LockSnapshot summarizes the lock manager: cumulative counters plus
// wait-time attribution per shard.
type LockSnapshot struct {
	Shards        int                 `json:"shards"`
	Requests      int64               `json:"requests"`
	Waits         int64               `json:"waits"`
	Deadlocks     int64               `json:"deadlocks"`
	Timeouts      int64               `json:"timeouts"`
	Collisions    int64               `json:"collisions"`
	MaxQueueDepth int64               `json:"max_queue_depth"`
	Sweeps        int64               `json:"sweeps"`
	LastSweepNs   int64               `json:"last_sweep_ns"`
	MaxSweepNs    int64               `json:"max_sweep_ns"`
	Wait          HistSnapshot        `json:"wait"`
	PerShard      []LockShardSnapshot `json:"per_shard"`
}

// LockShardSnapshot is one stripe's counters and wait-time attribution.
type LockShardSnapshot struct {
	Waits         int64 `json:"waits"`
	WaitNs        int64 `json:"wait_ns"`
	Deadlocks     int64 `json:"deadlocks"`
	Timeouts      int64 `json:"timeouts"`
	Collisions    int64 `json:"collisions"`
	MaxQueueDepth int64 `json:"max_queue_depth"`
	Resources     int   `json:"resources"`
}

// EscrowSnapshot summarizes commit folds and the deltas awaiting them.
type EscrowSnapshot struct {
	FoldBatches  int64 `json:"fold_batches"`
	FoldRows     int64 `json:"fold_rows"`
	FoldBatchMax int64 `json:"fold_batch_max"`
	FoldAborts   int64 `json:"fold_aborts"`
	// PendingRows counts (transaction, view row) pairs: a row two live
	// transactions hold deltas against counts twice.
	PendingRows int64 `json:"pending_rows"`
}

// WALSnapshot summarizes the write-ahead log and group commit.
type WALSnapshot struct {
	Appends        int64        `json:"appends"`
	Flushes        int64        `json:"flushes"`
	CoalescedSyncs int64        `json:"coalesced_syncs"`
	BatchRecords   int64        `json:"batch_records"`
	BatchMax       int64        `json:"batch_max"`
	FlushActiveNs  int64        `json:"flush_active_ns"`
	Flush          HistSnapshot `json:"flush"`
	Fsync          HistSnapshot `json:"fsync"`
}

// GhostSnapshot summarizes ghost-row maintenance and the background cleaner.
type GhostSnapshot struct {
	Created          int64 `json:"created"`
	Erased           int64 `json:"erased"`
	CleanerPasses    int64 `json:"cleaner_passes"`
	Backlog          int64 `json:"backlog"`
	BacklogHighWater int64 `json:"backlog_high_water"`
}

// RecoverySnapshot reports what the instance's restart did, with per-phase
// durations (analysis = snapshot load, redo = log replay, undo = loser
// rollback).
type RecoverySnapshot struct {
	Gen        uint64 `json:"gen"`
	Replayed   int    `json:"replayed"`
	Losers     int    `json:"losers"`
	UndoneOps  int    `json:"undone_ops"`
	Torn       bool   `json:"torn"`
	Fresh      bool   `json:"fresh"`
	AnalysisNs int64  `json:"analysis_ns"`
	RedoNs     int64  `json:"redo_ns"`
	UndoNs     int64  `json:"undo_ns"`
}

// WatchdogSnapshot reports stall-watchdog detections by signature.
type WatchdogSnapshot struct {
	Detections        int64 `json:"detections"`
	WALStalls         int64 `json:"wal_stalls"`
	LockConvoys       int64 `json:"lock_convoys"`
	EscrowStalls      int64 `json:"escrow_stalls"`
	GhostStalls       int64 `json:"ghost_stalls"`
	FreshnessBreaches int64 `json:"freshness_breaches"`
	ScrubDivergences  int64 `json:"scrub_divergences"`
}

// HotspotsSnapshot is the hot-spot attribution section: the top groups by
// lock wait and escrow delta volume, and the per-view maintenance cost
// table. The engine fills it (group keys and view names need the catalog);
// cardinality is bounded by the sketch capacity and the catalog size.
type HotspotsSnapshot struct {
	// SketchCapacity is the tracked-key capacity of each sketch.
	SketchCapacity int `json:"sketch_capacity"`
	// TopWait ranks groups by lock wait-ns; TopDelta by escrow delta updates.
	TopWait  []HotGroupSnapshot `json:"top_wait"`
	TopDelta []HotGroupSnapshot `json:"top_delta"`
	// Views is the per-view cost table, ordered by descending fold rows.
	Views []ViewCostSnapshot `json:"views"`
}

// HotGroupSnapshot is one heavy-hitter entry: a group key within a view,
// with its Space-Saving estimate and error bound (true ∈ [value−err, value]).
type HotGroupSnapshot struct {
	Tree  uint32 `json:"tree"`
	View  string `json:"view"`
	Key   string `json:"key"`
	Value int64  `json:"value"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"`
}

// HotGroupGrowth diffs two heavy-hitter listings of the same sketch: entry i
// is how much cur[i]'s estimate grew since prev, matched by (tree, key). A
// group new to cur grows from zero, which over-reports by at most the
// sketch's error bound; a group whose estimate fell (evicted and re-admitted
// in between, or counters restarted by a reopen) grows by zero.
func HotGroupGrowth(prev, cur []HotGroupSnapshot) []int64 {
	type groupKey struct {
		tree uint32
		key  string
	}
	before := make(map[groupKey]int64, len(prev))
	for _, p := range prev {
		before[groupKey{p.Tree, p.Key}] = p.Value
	}
	out := make([]int64, len(cur))
	for i, c := range cur {
		out[i] = max(c.Value-before[groupKey{c.Tree, c.Key}], 0)
	}
	return out
}

// ViewCostSnapshot is one view's accumulated maintenance bill.
type ViewCostSnapshot struct {
	Tree       uint32 `json:"tree"`
	View       string `json:"view"`
	RowsFolded int64  `json:"rows_folded"`
	FoldNs     int64  `json:"fold_ns"`
	WALBytes   int64  `json:"wal_bytes"`
}

// MVCCSnapshot summarizes the multi-version read path: snapshot registry
// gauges (filled by the engine from the timestamp oracle) and version-chain
// counters (registry-owned).
type MVCCSnapshot struct {
	// Snapshots is the cumulative count of snapshot transactions begun;
	// ActiveSnapshots the number currently pinned.
	Snapshots       int64 `json:"snapshots"`
	ActiveSnapshots int64 `json:"active_snapshots"`
	// OldestSnapshotAgeNs is how long the oldest active snapshot has been
	// pinned (zero when none is).
	OldestSnapshotAgeNs int64 `json:"oldest_snapshot_age_ns"`
	// Watermark is the oracle's published read timestamp.
	Watermark uint64 `json:"watermark"`
	// Chains is the live version-chain gauge; ChainLenHighWater the longest
	// chain ever observed.
	Chains            int64 `json:"chains"`
	ChainLenHighWater int64 `json:"chain_len_high_water"`
	VersionsStamped   int64 `json:"versions_stamped"`
	VersionsPruned    int64 `json:"versions_pruned"`
	PrunePasses       int64 `json:"prune_passes"`
}

// DeferredSnapshot summarizes the deferred view-maintenance tier: publication
// and apply counters (registry-owned) plus watermark/lag/staleness gauges the
// engine fills from the oracle and the applier state.
type DeferredSnapshot struct {
	PublishedBatches int64 `json:"published_batches"`
	PublishedGroups  int64 `json:"published_groups"`
	ApplyRounds      int64 `json:"apply_rounds"`
	RetryRounds      int64 `json:"retry_rounds"`
	GroupsApplied    int64 `json:"groups_applied"`
	DeltasIn         int64 `json:"deltas_in"`
	DeltasCoalesced  int64 `json:"deltas_coalesced"`
	QueueHighWater   int64 `json:"queue_high_water"`
	// PendingGroups is a gauge of (view, group) accumulators awaiting a fold
	// (coalescer contents; queued-but-unmerged batches are not counted).
	PendingGroups int64 `json:"pending_groups"`
	// Watermark is the minimum applied watermark across deferred views (zero
	// when none exist); LagTS the oracle read timestamp minus that watermark.
	Watermark uint64 `json:"watermark"`
	LagTS     uint64 `json:"lag_ts"`
	// StalenessNs is how long the oldest unapplied publish has been waiting
	// (zero when the applier is caught up) — the bounded-staleness gauge,
	// the largest of the per-view staleness gauges in Freshness.Views.
	StalenessNs int64        `json:"staleness_ns"`
	Apply       HistSnapshot `json:"apply"`
	// Views lists each deferred view's applied watermark.
	Views []DeferredViewSnapshot `json:"views"`
}

// DeferredViewSnapshot is one deferred view's applied watermark.
type DeferredViewSnapshot struct {
	Tree      uint32 `json:"tree"`
	View      string `json:"view"`
	Watermark uint64 `json:"watermark"`
}

// FreshnessSnapshot is the per-view freshness section: commit-to-visible
// latency summaries and current-staleness gauges for every maintained view.
// The engine fills it (view names and strategies need the catalog).
type FreshnessSnapshot struct {
	// SLONs is the configured freshness SLO in nanoseconds (zero when
	// unenforced).
	SLONs int64 `json:"slo_ns"`
	// Views lists each view's freshness, ordered by tree ID.
	Views []ViewFreshnessSnapshot `json:"views"`
}

// ViewFreshnessSnapshot is one view's freshness picture.
type ViewFreshnessSnapshot struct {
	Tree     uint32 `json:"tree"`
	View     string `json:"view"`
	Strategy string `json:"strategy"`
	// StalenessNs is the age of the oldest commit not yet visible in the view
	// (always zero for escrow views: they are maintained inside the commit).
	StalenessNs int64 `json:"staleness_ns"`
	// CommitToVisible summarizes commit-to-visible latency: the commit-time
	// fold for escrow views, publish→watermark for deferred views.
	CommitToVisible HistSnapshot `json:"commit_to_visible"`
}

// ScrubSnapshot is the online consistency scrubber's section (DESIGN.md
// §7.4): verification volume, divergence counts, and per-view coverage. The
// registry fills the counters; the engine fills Views (names need the
// catalog).
type ScrubSnapshot struct {
	// Enabled reports whether the background scrubber task is running.
	Enabled bool `json:"enabled"`
	// Cycles counts completed full passes over every view; Slices the
	// verification slices processed, one whole view each.
	Cycles int64 `json:"cycles"`
	Slices int64 `json:"slices"`
	// RowsVerified counts source rows recomputed plus view rows compared —
	// the row budget's currency.
	RowsVerified int64 `json:"rows_verified"`
	// Divergences counts stored view rows that disagreed with the recompute.
	Divergences int64 `json:"divergences"`
	// SnapshotRetries counts watermark pins refused by the prune horizon,
	// each retried at once with a fresher watermark.
	SnapshotRetries int64 `json:"snapshot_retries"`
	// LastFullPassUnix is the wall clock (Unix seconds) of the most recent
	// completed full pass, zero until the first.
	LastFullPassUnix int64 `json:"last_full_pass_unix"`
	// CycleDur summarizes full-pass wall durations.
	CycleDur HistSnapshot `json:"cycle_dur"`
	// Views lists each view's coverage state, ordered by tree ID.
	Views []ViewScrubSnapshot `json:"views"`
}

// ViewScrubSnapshot is one view's scrub coverage picture.
type ViewScrubSnapshot struct {
	Tree uint32 `json:"tree"`
	View string `json:"view"`
	// Passes counts completed verification passes over the whole view.
	Passes int64 `json:"passes"`
	// RowsVerified counts rows read verifying this view; Divergences the
	// divergences attributed to it.
	RowsVerified int64 `json:"rows_verified"`
	Divergences  int64 `json:"divergences"`
	// CoverageTS is the snapshot timestamp every group has been verified at
	// or above (the coverage watermark); LastPassUnixNs the wall clock of the
	// last completed pass.
	CoverageTS     uint64 `json:"coverage_ts"`
	LastPassUnixNs int64  `json:"last_pass_unix_ns"`
}

// CascadeSnapshot summarizes stacked-view (view-over-view) maintenance: child
// deltas enqueued by parent folds, the coalescing win of the commit-local
// queue, and per-DAG-level fold counts.
type CascadeSnapshot struct {
	Enqueued    int64 `json:"enqueued"`
	Coalesced   int64 `json:"coalesced"`
	Folds       int64 `json:"folds"`
	DeferredOut int64 `json:"deferred_out"`
	// LevelFolds[i] counts commit-time folds of views at DAG level i (level 0 =
	// views directly over base tables; the last bucket absorbs deeper levels).
	LevelFolds []int64 `json:"level_folds"`
}

// FlightSnapshot reports the flight recorder's state; the engine fills it
// (the recorder is not registry-owned).
type FlightSnapshot struct {
	Enabled  bool  `json:"enabled"`
	Capacity int   `json:"capacity"`
	Recorded int64 `json:"recorded"`
	Dumps    int64 `json:"dumps"`
}

// Snap fills the registry-owned sections of a snapshot. The caller (the
// engine) fills the sections whose source of truth lives elsewhere: the lock
// manager's counters, the per-view listings (names need the catalog), the
// oracle's gauges, the recovery summary and the flight recorder.
func (r *Registry) Snap() Snapshot {
	s := Snapshot{
		Engine: EngineSnapshot{
			Commits:     r.Engine.Commits.Load(),
			Aborts:      r.Engine.Aborts.Load(),
			SysTxns:     r.Engine.SysTxns.Load(),
			Escalations: r.Engine.Escalations.Load(),
		},
		Txn: TxnSnapshot{
			Begin: r.Txn.Begin.Snap(),
			// Lock waits are observed once, by the lock manager; the txn-phase
			// view is the same histogram.
			LockWait:   r.Lock.Wait.Snap(),
			Apply:      r.Txn.Apply.Snap(),
			Fold:       r.Txn.Fold.Snap(),
			CommitWait: r.Txn.CommitWait.Snap(),
		},
		Escrow: EscrowSnapshot{
			FoldBatches:  r.Escrow.FoldBatches.Load(),
			FoldRows:     r.Escrow.FoldRows.Load(),
			FoldBatchMax: r.Escrow.FoldBatchMax.Load(),
			FoldAborts:   r.Escrow.FoldAborts.Load(),
			PendingRows:  r.Escrow.PendingRows.Load(),
		},
		WAL: WALSnapshot{
			Appends:        r.WAL.Appends.Load(),
			Flushes:        r.WAL.Flushes.Load(),
			CoalescedSyncs: r.WAL.CoalescedSyncs.Load(),
			BatchRecords:   r.WAL.BatchRecords.Load(),
			BatchMax:       r.WAL.BatchMax.Load(),
			FlushActiveNs:  r.WAL.FlushActiveNs(r.Clock.Now()),
			Flush:          r.WAL.Flush.Snap(),
			Fsync:          r.WAL.Fsync.Snap(),
		},
		Ghost: GhostSnapshot{
			Created:          r.Ghost.Created.Load(),
			Erased:           r.Ghost.Erased.Load(),
			CleanerPasses:    r.Ghost.CleanerPasses.Load(),
			Backlog:          r.Ghost.Backlog.Load(),
			BacklogHighWater: r.Ghost.BacklogHighWater.Load(),
		},
		Watchdog: WatchdogSnapshot{
			Detections:        r.Watchdog.Detections.Load(),
			WALStalls:         r.Watchdog.WALStalls.Load(),
			LockConvoys:       r.Watchdog.LockConvoys.Load(),
			EscrowStalls:      r.Watchdog.EscrowStalls.Load(),
			GhostStalls:       r.Watchdog.GhostStalls.Load(),
			FreshnessBreaches: r.Watchdog.FreshnessBreaches.Load(),
			ScrubDivergences:  r.Watchdog.ScrubDivergences.Load(),
		},
	}
	s.Scrub = ScrubSnapshot{
		Cycles:           r.Scrub.Cycles.Load(),
		Slices:           r.Scrub.Slices.Load(),
		RowsVerified:     r.Scrub.RowsVerified.Load(),
		Divergences:      r.Scrub.Divergences.Load(),
		SnapshotRetries:  r.Scrub.SnapshotRetries.Load(),
		LastFullPassUnix: r.Scrub.LastFullPassUnixNs.Load() / int64(time.Second),
		CycleDur:         r.Scrub.CycleDur.Snap(),
	}
	s.Deferred = DeferredSnapshot{
		PublishedBatches: r.Deferred.PublishedBatches.Load(),
		PublishedGroups:  r.Deferred.PublishedGroups.Load(),
		ApplyRounds:      r.Deferred.ApplyRounds.Load(),
		RetryRounds:      r.Deferred.RetryRounds.Load(),
		GroupsApplied:    r.Deferred.GroupsApplied.Load(),
		DeltasIn:         r.Deferred.DeltasIn.Load(),
		DeltasCoalesced:  r.Deferred.DeltasCoalesced.Load(),
		QueueHighWater:   r.Deferred.QueueHighWater.Load(),
		Apply:            r.Deferred.Apply.Snap(),
	}
	s.Cascade = CascadeSnapshot{
		Enqueued:    r.Cascade.Enqueued.Load(),
		Coalesced:   r.Cascade.Coalesced.Load(),
		Folds:       r.Cascade.Folds.Load(),
		DeferredOut: r.Cascade.DeferredOut.Load(),
		LevelFolds:  make([]int64, CascadeLevels),
	}
	for i := range r.Cascade.LevelFolds {
		s.Cascade.LevelFolds[i] = r.Cascade.LevelFolds[i].Load()
	}
	s.MVCC = MVCCSnapshot{
		Chains:            r.MVCC.Chains.Load(),
		ChainLenHighWater: r.MVCC.ChainLenHighWater.Load(),
		VersionsStamped:   r.MVCC.VersionsStamped.Load(),
		VersionsPruned:    r.MVCC.VersionsPruned.Load(),
		PrunePasses:       r.MVCC.PrunePasses.Load(),
	}
	return s
}
