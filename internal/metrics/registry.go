package metrics

import (
	"sync/atomic"
)

// Registry is the engine metrics registry: one per DB instance, created at
// Open and handed by sub-struct pointer to each subsystem. All fields are
// atomic; observation never takes a lock.
type Registry struct {
	Engine   EngineMetrics
	Txn      TxnMetrics
	Lock     LockMetrics
	Escrow   EscrowMetrics
	WAL      WALMetrics
	Ghost    GhostMetrics
	Watchdog WatchdogMetrics
	Hot      HotMetrics
	MVCC     MVCCMetrics
	Deferred DeferredMetrics
	Cascade  CascadeMetrics
	// Scrub is the online consistency scrubber's accounting: verification
	// volume and divergences.
	Scrub ScrubMetrics
	// Views holds one record per indexed view: its maintenance bill, its
	// commit-to-visible latency and its scrub coverage.
	Views Views
}

// NewRegistry returns an empty registry with the hot-spot sketches sized to
// their defaults.
func NewRegistry() *Registry {
	r := &Registry{}
	r.Hot.LockWait = NewSketch(DefaultSketchSlots)
	r.Hot.EscrowDeltas = NewSketch(DefaultSketchSlots)
	r.Lock.Hot = r.Hot.LockWait
	r.Scrub.Views = &r.Views
	return r
}

// EngineMetrics are the engine's transaction counters.
type EngineMetrics struct {
	// Commits and Aborts count user transactions by outcome; SysTxns the
	// system transactions (ghost creation and erasure, DDL).
	Commits atomic.Int64
	Aborts  atomic.Int64
	SysTxns atomic.Int64
	// Escalations counts key-lock sets replaced by one tree lock.
	Escalations atomic.Int64
}

// HotMetrics is the hot-spot attribution layer: heavy-hitter sketches over
// (view, group-key) fed by the lock manager and the escrow maintenance path.
// Both are bounded-cardinality by construction (sketch capacity), so
// snapshotting them never explodes.
type HotMetrics struct {
	// LockWait attributes lock wait: Val is blocked nanoseconds on the key,
	// Cnt the number of resolved waits (conflicts).
	LockWait *Sketch
	// EscrowDeltas attributes escrow pressure: Val is pending delta updates
	// applied against the group's view row, Cnt the number of transactions
	// that newly piled onto the row.
	EscrowDeltas *Sketch
}

// TxnMetrics are the per-phase transaction timing histograms: where a
// transaction's wall-clock goes between Begin and the durable commit.
type TxnMetrics struct {
	// Begin times BeginTx itself (admission gate + begin record).
	Begin Histogram
	// Apply times logged operations (WAL append + tree apply), sampled: one
	// operation in 8 is timed, so its count is about an eighth of the
	// operations logged.
	Apply Histogram
	// Fold times the commit-time escrow fold (only commits with pending
	// deltas are observed).
	Fold Histogram
	// CommitWait times the group-commit sync the committer waits on.
	CommitWait Histogram
}

// LockMetrics attribute lock wait time. The lock manager's counters live in
// its shards (lock.Manager.Snapshot); this adds the wait-time distribution
// and the keys the waits were on.
type LockMetrics struct {
	// Wait is the global wait-time histogram (same samples as Txn.LockWait).
	Wait Histogram

	// Hot, when set, attributes wait-ns and conflict counts to the specific
	// key resource waited on (the registry aliases Hot.LockWait here so the
	// lock manager needs no registry reference). Nil-safe.
	Hot *Sketch
}

// EscrowMetrics track the escrow deltas transactions hold pending and how
// commit-time folds batch.
type EscrowMetrics struct {
	// FoldBatches counts commit folds; FoldRows the view rows they folded.
	// FoldBatchMax is the largest single fold (rows per commit).
	FoldBatches  atomic.Int64
	FoldRows     atomic.Int64
	FoldBatchMax atomic.Int64
	// FoldAborts counts commits whose fold failed and rolled the transaction
	// back — the engine's analogue of an escrow overdraft abort.
	FoldAborts atomic.Int64
	// PendingRows is a gauge of (transaction, view row) pairs with unfolded
	// deltas: each transaction moves it as it first touches a group and as it
	// ends (the watchdog's escrow-backlog signal). A row two transactions
	// hold deltas against counts twice.
	PendingRows atomic.Int64
}

// ObserveFold records one commit fold of n view rows.
func (em *EscrowMetrics) ObserveFold(n int) {
	em.FoldBatches.Add(1)
	em.FoldRows.Add(int64(n))
	maxInt64(&em.FoldBatchMax, int64(n))
}

// WALMetrics track the write-ahead log: append volume, group-commit
// coalescing, and flush/fsync latency.
type WALMetrics struct {
	// Appends counts records appended to the log buffer.
	Appends atomic.Int64
	// Flushes counts physical buffer flushes; CoalescedSyncs counts Sync
	// calls satisfied by another committer's flush (the group-commit win).
	Flushes        atomic.Int64
	CoalescedSyncs atomic.Int64
	// BatchRecords sums records per flush; BatchMax is the largest batch.
	BatchRecords atomic.Int64
	BatchMax     atomic.Int64
	// Flush times the whole flush (write + fsync when SyncData); Fsync times
	// the fsync alone.
	Flush Histogram
	Fsync Histogram
	// flushStartNs is the UnixNano at which the in-progress physical flush
	// began, or zero when no flush is active — the watchdog's WAL-stall
	// signal. Set by the flusher after winning the flush mutex.
	flushStartNs atomic.Int64
}

// ObserveBatch records one physical flush of n records.
func (wm *WALMetrics) ObserveBatch(n int64) {
	wm.Flushes.Add(1)
	wm.BatchRecords.Add(n)
	maxInt64(&wm.BatchMax, n)
}

// BeginFlush marks a physical flush as in progress since startNs;
// EndFlush clears the mark. Only the single flusher calls either.
func (wm *WALMetrics) BeginFlush(startNs int64) {
	if wm == nil {
		return
	}
	wm.flushStartNs.Store(startNs)
}

// EndFlush marks the in-progress flush as finished.
func (wm *WALMetrics) EndFlush() {
	if wm == nil {
		return
	}
	wm.flushStartNs.Store(0)
}

// FlushActiveNs reports how long the in-progress flush has been running as of
// nowNs, or zero when no flush is active.
func (wm *WALMetrics) FlushActiveNs(nowNs int64) int64 {
	start := wm.flushStartNs.Load()
	if start == 0 || nowNs <= start {
		return 0
	}
	return nowNs - start
}

// GhostMetrics track the background ghost cleaner.
type GhostMetrics struct {
	// Created counts transitions into the ghost state, not ghost lifetimes:
	// a ghost-creating system transaction counts one, and so does every fold
	// that empties a live row (or finds none). A group created as a ghost,
	// filled, emptied and then erased counts two creations and one erase.
	// Erased counts the ghosts the cleaner removed.
	Created atomic.Int64
	Erased  atomic.Int64
	// CleanerPasses counts CleanGhosts sweeps.
	CleanerPasses atomic.Int64
	// Backlog is the ghost rows still present after the last sweep (a gauge);
	// BacklogHighWater the most ever left behind.
	Backlog          atomic.Int64
	BacklogHighWater atomic.Int64
}

// ObservePass records one cleaner sweep ending with backlog ghosts left.
func (gm *GhostMetrics) ObservePass(backlog int) {
	gm.CleanerPasses.Add(1)
	gm.Backlog.Store(int64(backlog))
	maxInt64(&gm.BacklogHighWater, int64(backlog))
}

// MVCCMetrics track the multi-version read path: version-chain population,
// stamping volume, and pruning progress. The snapshot-registry gauges
// (active snapshots, watermark, oldest-snapshot age) live in the timestamp
// oracle; the engine fills them into the snapshot directly.
type MVCCMetrics struct {
	// VersionsStamped counts committed versions appended to chains.
	VersionsStamped atomic.Int64
	// VersionsPruned counts versions folded into chain bases, by the pruner
	// or by a commit compacting a long chain it stamped.
	VersionsPruned atomic.Int64
	// PrunePasses counts pruner sweeps.
	PrunePasses atomic.Int64
	// Chains is a gauge of live version chains; ChainLenHighWater the longest
	// chain (base + versions + pending) ever observed.
	Chains            atomic.Int64
	ChainLenHighWater atomic.Int64
}

// ObserveChainLen raises the chain-length high-water mark.
func (mm *MVCCMetrics) ObserveChainLen(n int) {
	if mm == nil {
		return
	}
	maxInt64(&mm.ChainLenHighWater, int64(n))
}

// DeferredMetrics track the deferred view-maintenance tier (DESIGN.md §9):
// commit-path publication volume, applier round progress, and the coalescing
// win. The watermark/lag/staleness gauges live in the oracle and the engine's
// applier state; the engine fills them into the snapshot directly.
type DeferredMetrics struct {
	// PublishedBatches counts commits that published deferred deltas;
	// PublishedGroups the (view, group) deltas those batches carried.
	PublishedBatches atomic.Int64
	PublishedGroups  atomic.Int64
	// ApplyRounds counts applier rounds that folded at least one group;
	// RetryRounds the rounds re-run after a failed fold.
	ApplyRounds atomic.Int64
	RetryRounds atomic.Int64
	// GroupsApplied counts (view, group) folds the applier performed.
	GroupsApplied atomic.Int64
	// DeltasIn counts cell deltas entering the coalescer; DeltasCoalesced the
	// subset merged into an already-pending accumulator (folds saved versus
	// immediate maintenance).
	DeltasIn        atomic.Int64
	DeltasCoalesced atomic.Int64
	// QueueHighWater is the most messages ever waiting in the applier queue.
	QueueHighWater atomic.Int64
	// Apply times each applier round (drain + fold + watermark publish).
	Apply Histogram
}

// ObserveQueueDepth raises the applier-queue high-water mark.
func (dm *DeferredMetrics) ObserveQueueDepth(n int) {
	if dm == nil {
		return
	}
	maxInt64(&dm.QueueHighWater, int64(n))
}

// CascadeLevels is how many view-DAG levels CascadeMetrics attributes
// individually; deeper levels fall into the last bucket.
const CascadeLevels = 4

// CascadeMetrics track stacked-view (view-over-view) maintenance: the child
// deltas parent folds cascade downward, how many of them merge into a
// (view, group) accumulator already pending in the same transaction — the
// commit-local coalescing queue's ≤1-fold-per-group guarantee — and how the
// resulting folds distribute over DAG levels.
type CascadeMetrics struct {
	// Enqueued counts child-view cell deltas produced by parent row changes
	// (both commit-time escrow cascades and DML-time X-lock cascades);
	// Coalesced the subset merged into an already-pending (view, group)
	// accumulator instead of creating a new one.
	Enqueued  atomic.Int64
	Coalesced atomic.Int64
	// Folds counts commit-time folds against stacked views (level >= 1) —
	// folds fed by a cascade rather than by base-table DML directly.
	Folds atomic.Int64
	// DeferredOut counts cascade group deltas routed to the deferred applier
	// instead of folded at commit (escrow parent feeding a deferred child).
	DeferredOut atomic.Int64
	// LevelFolds breaks every commit-time view fold down by DAG level
	// (level 0 = views directly over base tables).
	LevelFolds [CascadeLevels]atomic.Int64
}

// ObserveFold records one commit-time fold of a view at the given DAG level.
func (cm *CascadeMetrics) ObserveFold(level int) {
	if cm == nil {
		return
	}
	if level >= CascadeLevels {
		level = CascadeLevels - 1
	}
	cm.LevelFolds[level].Add(1)
	if level > 0 {
		cm.Folds.Add(1)
	}
}

// WatchdogMetrics count stall-watchdog detections by signature.
type WatchdogMetrics struct {
	// Detections counts every stall onset the watchdog reported.
	Detections atomic.Int64
	// Per-signature breakdown of Detections.
	WALStalls    atomic.Int64
	LockConvoys  atomic.Int64
	EscrowStalls atomic.Int64
	GhostStalls  atomic.Int64
	// FreshnessBreaches counts freshness-SLO onsets (a view's staleness
	// crossed Options.FreshnessSLO).
	FreshnessBreaches atomic.Int64
	// ScrubDivergences counts scrub-divergence onsets (the online scrubber
	// found a view disagreeing with its recompute).
	ScrubDivergences atomic.Int64
}
