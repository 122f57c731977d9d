// Package core implements the database kernel: it glues the B-tree storage,
// write-ahead log, lock manager, escrow pending sets, transaction manager, and the
// compiled view-maintenance plans into a transactional engine with
// immediately maintained indexed views (DESIGN.md §3).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/applier"
	"repro/internal/apply"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/flightrec"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/mvcc"
	"repro/internal/record"
	"repro/internal/recovery"
	"repro/internal/scrub"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configure a database instance.
type Options struct {
	// SyncMode selects commit durability (default SyncNone; see wal docs).
	SyncMode wal.SyncMode
	// LockTimeout bounds lock waits (default 10s).
	LockTimeout time.Duration
	// EscalationThreshold escalates a transaction's key locks on one tree
	// to a single tree lock once it holds more than this many. 0 disables.
	EscalationThreshold int
	// GhostCleanInterval runs the background ghost cleaner this often.
	// 0 disables the background cleaner (CleanGhosts still works).
	GhostCleanInterval time.Duration
	// MVCCPruneInterval runs the background version-chain pruner this often
	// (DESIGN.md §8). 0 selects the default (25ms); negative disables the
	// background pruner (PruneVersions still works).
	MVCCPruneInterval time.Duration
	// FS is the filesystem under the WAL, snapshot, and manifest I/O.
	// nil selects the real filesystem; the crash-torture harness passes a
	// fault.Injector to exercise torn writes, failed fsyncs, and crashes.
	FS fault.FS
	// Hooks receives the engine's named crash points (fault.Point) when
	// non-nil. Torture/testing only; a returned error aborts the operation
	// that hit the point.
	Hooks fault.Hooks
	// Tracer, when non-nil, receives engine trace events: transaction
	// begin/end, resolved lock waits, commit folds, group commits, ghost
	// sweeps, and recovery phases. Implementations must be concurrency-safe
	// and fast — events fire inline on engine paths. Events arrive already
	// stamped with sequence number and timestamp by the flight recorder
	// (unless it is disabled).
	Tracer metrics.Tracer
	// FlightRecorderSize sets the flight recorder's ring capacity in events.
	// 0 selects the default (flightrec.DefaultSize); negative disables the
	// recorder entirely (events skip straight to Tracer, unstamped).
	FlightRecorderSize int
	// FlightSink, when non-nil, receives an automatic human-readable
	// flight-record dump the moment the engine hits a failure trigger: a
	// deadlock, a lock timeout, or a watchdog stall detection. Dumps are
	// rate-limited. Explicit dumps via DB.DumpFlightRecord work regardless.
	FlightSink io.Writer
	// WatchdogInterval runs the background stall watchdog this often: it
	// diffs metrics snapshots and reports stall signatures (WAL flush not
	// advancing, lock-shard convoy, escrow fold backlog, ghost-cleaner
	// starvation) as EventStall trace events, watchdog_detections metrics,
	// and flight-record dumps to FlightSink. An in-progress condition older
	// than four intervals counts as a stall. 0 disables the watchdog.
	WatchdogInterval time.Duration
	// FreshnessSLO, when positive, is the per-view staleness bound the
	// watchdog enforces: a view whose commit-to-visible lag exceeds it fires
	// the freshness-slo stall signature naming the lagging view (and
	// auto-dumps the linked flight record to FlightSink). It also annotates
	// the metrics snapshot's freshness section. Enforcement needs a positive
	// WatchdogInterval; without it the SLO is report-only.
	FreshnessSLO time.Duration
	// ScrubInterval runs the online consistency scrubber: a background task
	// verifying one view per tick against a recompute at MVCC snapshot
	// timestamps (DESIGN.md §7.4), paced at 200k verified rows per second.
	// 0 selects the default (25ms); negative disables the background task
	// (ScrubNow still works).
	ScrubInterval time.Duration
}

// DB is a database instance.
type DB struct {
	path    string
	opts    Options
	started time.Time

	reg     *apply.Registry
	treesMu sync.RWMutex
	trees   map[id.Tree]*btree.Tree

	log *wal.Writer
	gen uint64

	lm *lock.Manager
	tm *txn.Manager

	// oracle allocates commit timestamps and tracks active snapshots; dirty is
	// the pruner's work list of live version chains — the chains themselves
	// hang off the B-tree entries (DESIGN.md §8).
	oracle *txn.Oracle
	dirty  mvcc.WorkList

	// gate admits user-level actors (transactions, DDL, the cleaner) as
	// readers; Checkpoint takes it exclusively to quiesce the database.
	gate sync.RWMutex
	// structMu stripes the short system-duration latches serializing
	// structure changes to each aggregate view row: ghost creation, commit
	// folds, and ghost erase (DESIGN.md §5). Striping by row keeps folds on
	// different groups concurrent.
	structMu []sync.Mutex
	// ddlMu serializes DDL statements.
	ddlMu sync.Mutex

	// met is the engine metrics registry (always non-nil); tracer is the
	// head of the tracer chain: the flight recorder (which forwards to
	// Options.Tracer), or Options.Tracer directly when the recorder is
	// disabled.
	met    *metrics.Registry
	tracer metrics.Tracer
	// flight is the always-on flight recorder (nil when disabled).
	flight *flightrec.Recorder

	closed    atomic.Bool
	recovered recovery.Summary
	// bg runs the background tasks (bg.go).
	bg runner

	// applierQ feeds the deferred-view applier task (deferred.go).
	// deferredPending is the applier's backlog gauge for Metrics.
	applierQ        *deferredQueue
	deferredPending atomic.Int64
	// deferredStale is the applier-maintained per-view oldest-unapplied-
	// publish table (wall ns); Metrics merges it with a queue scan into each
	// view's staleness gauge (deferred.go).
	deferredStaleMu sync.Mutex
	deferredStale   map[id.Tree]int64

	// scrub is the online consistency scrubber (always constructed, so
	// ScrubNow works even when the background task is disabled).
	scrub *scrub.Scrubber
}

// foldStripes is the number of row-structure latch stripes.
const foldStripes = 128

// structLatch returns the structure latch stripe for one view row.
func (db *DB) structLatch(tree id.Tree, key []byte) *sync.Mutex {
	h := uint32(2166136261)
	h = (h ^ uint32(tree)) * 16777619
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return &db.structMu[h%uint32(len(db.structMu))]
}

// Errors returned by the engine.
var (
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("core: database closed")
	// ErrTxnDone reports use of a finished transaction.
	ErrTxnDone = errors.New("core: transaction already finished")
	// ErrDuplicateKey reports a primary-key or unique-index violation.
	ErrDuplicateKey = errors.New("core: duplicate key")
	// ErrNotFound reports a missing row.
	ErrNotFound = errors.New("core: row not found")
	// ErrSchema reports a row/DDL that does not fit the schema.
	ErrSchema = errors.New("core: schema violation")
	// ErrReadOnly reports a write attempted in a read-only transaction.
	ErrReadOnly = errors.New("core: read-only transaction")
	// ErrSnapshotOnly reports TxOptions.ReadOnly combined with an isolation
	// level other than Snapshot: the read-only fast path skips logging and
	// locking entirely, which only multi-version reads make safe.
	ErrSnapshotOnly = errors.New("core: ReadOnly requires Snapshot isolation")
	// ErrDeadlock aborts the transaction chosen as a deadlock victim. Lock
	// errors carry the requesting transaction, mode, and resource as context
	// and wrap this sentinel, so errors.Is works through the whole chain.
	ErrDeadlock = lock.ErrDeadlock
	// ErrLockTimeout reports a lock wait that exceeded its timeout.
	ErrLockTimeout = lock.ErrTimeout
	// ErrInvalidView is the root sentinel every CreateIndexedView/DropView/
	// RefreshView validation failure wraps; the chain names the offending view
	// (and column) by name. errors.Is(err, ErrInvalidView) matches them all.
	ErrInvalidView = errors.New("core: invalid view operation")
	// ErrViewInUse (which also wraps ErrInvalidView at the call sites) rejects
	// dropping a view while other views are defined over it.
	ErrViewInUse = errors.New("core: view has dependent views")
	// ErrViewWatermarkDropped reports a WaitForViewWatermark whose view was
	// dropped while the waiter blocked (or before it waited): the watermark
	// can never reach the target, so the wait fails instead of hanging.
	ErrViewWatermarkDropped = txn.ErrViewWatermarkDropped
)

// Open recovers (or creates) the database at path.
func Open(path string, opts Options) (*DB, error) {
	if opts.LockTimeout <= 0 {
		opts.LockTimeout = 10 * time.Second
	}
	if opts.FS == nil {
		opts.FS = fault.OS{}
	}
	st, err := recovery.RunFS(opts.FS, path, opts.SyncMode)
	if err != nil {
		return nil, err
	}
	met := metrics.NewRegistry()
	// The flight recorder heads the tracer chain: every event is stamped and
	// recorded before being forwarded to the user's tracer.
	var flight *flightrec.Recorder
	tracer := opts.Tracer
	if opts.FlightRecorderSize >= 0 {
		flight = flightrec.New(flightrec.Config{
			Size: opts.FlightRecorderSize,
			Next: opts.Tracer,
			Sink: opts.FlightSink,
		})
		tracer = flight
	}
	db := &DB{
		path:    path,
		opts:    opts,
		started: time.Now(),
		reg:     st.Reg,
		trees:   st.Trees,
		log:     st.Log,
		gen:     st.Gen,
		lm: lock.NewManagerOpts(lock.Options{
			DefaultTimeout: opts.LockTimeout,
			Metrics:        &met.Lock,
			Tracer:         tracer,
		}),
		tm:        txn.NewManager(st.NextTxn),
		oracle:    txn.NewOracle(),
		applierQ:  newDeferredQueue(),
		structMu:  make([]sync.Mutex, foldStripes),
		recovered: st.Summary,
		met:       met,
		tracer:    tracer,
		flight:    flight,
	}
	db.log.SetObserver(&met.WAL, tracer)
	db.syncViewRecords()
	if tr := tracer; tr != nil && !st.Summary.Fresh {
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "analysis", Dur: st.Summary.Analysis})
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "redo", Dur: st.Summary.Redo, Rows: st.Summary.Replayed})
		tr.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "undo", Dur: st.Summary.Undo, Rows: st.Summary.UndoneOps})
	}
	// Deferred deltas pending in the applier queue at a crash were never
	// logged, so a recovered deferred view may be stale relative to its
	// (fully recovered) base tables. Recompute each one in tree-ID (topological)
	// order so parents converge before their dependents; RefreshView cascades
	// to the dependent subtree, so a view whose source view is itself deferred
	// is covered by the source's refresh and skipped here. Each refresh
	// publishes its views' apply pairs itself, so a recovered deferred view
	// has its watermark when Open returns.
	if !st.Summary.Fresh {
		cat := db.Catalog()
		for _, v := range cat.DeferredViews() {
			if p, err := cat.View(v.Left); err == nil && p.Strategy == catalog.StrategyDeferred {
				continue
			}
			if _, err := db.RefreshView(v.Name); err != nil {
				db.Close()
				return nil, fmt.Errorf("core: recovery refresh of deferred view %q: %w", v.Name, err)
			}
		}
	}
	// The background task table (DESIGN.md §3), in start order; Close and
	// Crash stop it in reverse. The deferred-view applier always runs — with
	// no deferred views it only fires an idle tick.
	co := applier.NewCoalescer()
	db.bg.start(task{
		name:  "deferred-applier",
		every: applierIdleTick,
		wake:  db.applierQ.wake,
		step:  func() { db.applierStep(co) },
		drain: func() { db.applierRound(co) },
	})
	if opts.MVCCPruneInterval >= 0 {
		db.bg.start(db.prunerTask(cmp.Or(opts.MVCCPruneInterval, defaultMVCCPruneInterval)))
	}
	if opts.GhostCleanInterval > 0 {
		db.bg.start(task{name: "ghost-cleaner", every: opts.GhostCleanInterval, step: func() { db.CleanGhosts() }})
	}
	// The online consistency scrubber (DESIGN.md §7.4). The Scrubber itself
	// always exists so ScrubNow works; its task runs unless ScrubInterval is
	// negative.
	scrubInterval := cmp.Or(opts.ScrubInterval, defaultScrubInterval)
	db.scrub = scrub.New(scrubEngine{db}, scrub.Config{
		Interval:  scrubInterval,
		RowBudget: defaultScrubRowBudget,
		Metrics:   &met.Scrub,
	})
	if opts.ScrubInterval >= 0 {
		db.bg.start(task{name: "scrubber", every: scrubInterval, step: db.scrub.Tick})
	}
	if opts.WatchdogInterval > 0 {
		wd := flightrec.NewWatchdog(flightrec.WatchdogConfig{
			Interval:     opts.WatchdogInterval,
			FreshnessSLO: opts.FreshnessSLO,
			Snap:         db.Metrics,
			Tracer:       tracer,
			Recorder:     flight,
			Metrics:      &met.Watchdog,
		})
		db.bg.start(task{name: "watchdog", every: opts.WatchdogInterval, step: wd.Tick})
	}
	return db, nil
}

// Close flushes the log and shuts the database down. It does not checkpoint;
// restart recovers from the log.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	// Stop the background tasks, the applier's final round included, before
	// the gate is taken exclusively: scrub slices, cleaner passes and applier
	// rounds are all gate readers.
	db.bg.stop(true)
	// Wait for in-flight transactions to drain.
	db.gate.Lock()
	defer db.gate.Unlock()
	return db.log.Close()
}

// Crash simulates a process crash for tests and the recovery experiments:
// the instance stops without a clean shutdown. With flush set, buffered log
// records reach the OS first (they would survive a process crash); without
// it they are lost (a machine-crash upper bound under SyncNone).
func (db *DB) Crash(flush bool) {
	if db.closed.Swap(true) {
		return
	}
	// No final applier round: a crash loses the applier queue. Pending
	// deferred deltas were never logged, which is exactly the staleness
	// Open's recovery refresh repairs.
	db.bg.stop(false)
	if flush {
		db.log.Sync(0)
	}
}

// Catalog returns the current catalog.
func (db *DB) Catalog() *catalog.Catalog { return db.reg.Catalog() }

// RecoverySummary reports what restart did when this instance opened.
func (db *DB) RecoverySummary() recovery.Summary { return db.recovered }

// Metrics returns the full structured observability snapshot: engine
// counters, per-phase transaction timing, lock wait attribution, escrow
// contention, WAL group-commit behavior, ghost-cleaner backlog, and the
// restart's recovery phases. Its JSON encoding is a stable schema.
func (db *DB) Metrics() metrics.Snapshot {
	now := time.Now()
	s := db.met.Snap()
	s.Engine.UptimeNs = now.Sub(db.started).Nanoseconds()
	s.Engine.SnapshotUnixNs = now.UnixNano()
	s.Lock = db.lm.Snapshot()
	s.Hotspots = db.hotspots()
	s.MVCC.Snapshots = db.oracle.SnapshotsBegun()
	s.MVCC.ActiveSnapshots = db.oracle.ActiveSnapshots()
	s.MVCC.OldestSnapshotAgeNs = db.oracle.OldestSnapshotAge(now).Nanoseconds()
	s.MVCC.Watermark = db.oracle.ReadTS()
	s.Deferred.PendingGroups = db.deferredPending.Load()
	if views := db.Catalog().DeferredViews(); len(views) > 0 {
		readTS := db.oracle.ReadTS()
		var minWM uint64
		for i, v := range views {
			wm := db.oracle.ViewWatermark(v.ID)
			s.Deferred.Views = append(s.Deferred.Views, metrics.DeferredViewSnapshot{
				Tree:      uint32(v.ID),
				View:      v.Name,
				Watermark: wm,
			})
			if i == 0 || wm < minWM {
				minWM = wm
			}
		}
		s.Deferred.Watermark = minWM
		if readTS > minWM {
			s.Deferred.LagTS = readTS - minWM
		}
	}
	s.Freshness.SLONs = int64(db.opts.FreshnessSLO)
	s.Scrub.Enabled = db.opts.ScrubInterval >= 0 && !db.closed.Load()
	// The per-view listings, in one pass over the views by tree ID. A
	// deferred view is as stale as its oldest unapplied publish (the
	// applier's table merged with the undrained queue); the others are
	// maintained inside the commit and never stale. The engine is as stale
	// as its stalest view.
	staleOldest := db.deferredStaleOldest()
	for _, v := range db.Catalog().ViewsByTree() {
		var staleNs int64
		if w, ok := staleOldest[v.ID]; ok && v.Strategy == catalog.StrategyDeferred && now.UnixNano() > w {
			staleNs = now.UnixNano() - w
		}
		s.Deferred.StalenessNs = max(s.Deferred.StalenessNs, staleNs)
		// A view created or dropped since the catalog read has no record here.
		if rec := db.met.Views.Get(v.ID); rec != nil {
			rec.AppendTo(&s, v.ID, v.Name, v.Strategy.String(), staleNs)
		}
	}
	sort.Slice(s.Hotspots.Views, func(i, j int) bool {
		a, b := s.Hotspots.Views[i], s.Hotspots.Views[j]
		return a.RowsFolded > b.RowsFolded || a.RowsFolded == b.RowsFolded && a.Tree < b.Tree
	})
	s.Recovery = metrics.RecoverySnapshot{
		Gen:        db.recovered.Gen,
		Replayed:   db.recovered.Replayed,
		Losers:     db.recovered.Losers,
		UndoneOps:  db.recovered.UndoneOps,
		Torn:       db.recovered.Torn,
		Fresh:      db.recovered.Fresh,
		AnalysisNs: db.recovered.Analysis.Nanoseconds(),
		RedoNs:     db.recovered.Redo.Nanoseconds(),
		UndoNs:     db.recovered.Undo.Nanoseconds(),
	}
	if db.flight != nil {
		s.Flight = metrics.FlightSnapshot{
			Enabled:  true,
			Capacity: db.flight.Capacity(),
			Recorded: db.flight.Recorded(),
			Dumps:    db.flight.Dumps(),
		}
	}
	return s
}

// syncViewRecords gives every view in the catalog a metrics record and
// removes the records of views no longer in it. Open calls it after
// recovery, and every DDL statement once its new catalog is in place.
func (db *DB) syncViewRecords() {
	views := db.Catalog().Views()
	trees := make([]id.Tree, len(views))
	for i, v := range views {
		trees[i] = v.ID
	}
	db.met.Views.Sync(trees)
}

// ErrFlightDisabled reports a dump request against a database opened with the
// flight recorder disabled (FlightRecorderSize < 0).
var ErrFlightDisabled = errors.New("core: flight recorder disabled")

// DumpFlightRecord writes the flight recorder's history to w as a
// human-readable causal timeline: one line per event (sequence, relative
// time, span, description) followed by a per-transaction span summary.
func (db *DB) DumpFlightRecord(w io.Writer) error {
	if db.flight == nil {
		return ErrFlightDisabled
	}
	return db.flight.WriteTimeline(w)
}

// WriteFlightRecordJSONL writes the flight recorder's history to w as JSON
// Lines, one event per line in sequence order — the machine-readable twin of
// DumpFlightRecord with a stable, golden-tested schema.
func (db *DB) WriteFlightRecordJSONL(w io.Writer) error {
	if db.flight == nil {
		return ErrFlightDisabled
	}
	return db.flight.WriteJSONL(w)
}

// tree returns the tree for tid, creating it on demand.
func (db *DB) tree(tid id.Tree) *btree.Tree {
	db.treesMu.RLock()
	t := db.trees[tid]
	db.treesMu.RUnlock()
	if t != nil {
		return t
	}
	db.treesMu.Lock()
	defer db.treesMu.Unlock()
	if t = db.trees[tid]; t == nil {
		t = btree.New()
		db.trees[tid] = t
	}
	return t
}

// allTrees returns a copy of the tree table.
func (db *DB) allTrees() map[id.Tree]*btree.Tree {
	db.treesMu.RLock()
	defer db.treesMu.RUnlock()
	trees := make(map[id.Tree]*btree.Tree, len(db.trees))
	for tid, t := range db.trees {
		trees[tid] = t
	}
	return trees
}

// hit notifies the fault hooks (when armed) that the engine reached a named
// crash point; a non-nil error must abort the surrounding operation.
func (db *DB) hit(p fault.Point) error {
	if db.opts.Hooks == nil {
		return nil
	}
	return db.opts.Hooks.Hit(p)
}

// applySampleEvery is how many logged operations share one Txn.Apply
// sample: logOp reads the clock for one operation in this many (by its
// transaction ID plus its index in the transaction, so one-operation
// transactions take turns), as the benchmark samples one transaction's
// latency in 8.
const applySampleEvery = 8

// logOp logs a record for t and applies it to the trees (write-ahead
// discipline: the record reaches the log buffer before the trees change).
func (db *DB) logOp(t *txn.Txn, rec *wal.Record) error {
	if err := db.hit(fault.PointWALAppend); err != nil {
		return err
	}
	var start time.Time
	timed := (uint64(t.ID)+uint64(len(t.Ops())))%applySampleEvery == 0
	if timed {
		start = time.Now()
	}
	rec.Txn = t.ID
	rec.Sys = t.Sys
	_, walBytes, err := db.log.AppendSized(rec)
	if err != nil {
		return err
	}
	if v := db.met.Views.Get(rec.Tree); v != nil {
		v.WALBytes.Add(int64(walBytes))
	}
	created, err := apply.ApplyPinned(db.reg, db.tree, rec, t.ID)
	if err != nil {
		return err
	}
	if created {
		db.trackChain(rec)
	}
	if err := t.RecordOp(rec); err != nil {
		unpin(rec)
		return err
	}
	if timed {
		db.met.Txn.Apply.Observe(time.Since(start))
	}
	return nil
}

// trackChain queues the chain rec's mutation created, kept in rec.Pin, for
// the pruner.
func (db *DB) trackChain(rec *wal.Record) {
	db.dirty.Add(mvcc.Dirty{Tree: rec.Tree, Key: rec.Key, Chain: rec.Pin.(*mvcc.Chain)})
	db.met.MVCC.Chains.Add(1)
}

// unpin discards rec's pending version, if it pinned one.
func unpin(rec *wal.Record) {
	if ch, ok := rec.Pin.(*mvcc.Chain); ok {
		ch.Unpin(rec)
	}
}

// maxChainLen is the chain length (base, versions and pending entries) past
// which a commit compacts a chain it stamps: it folds the chain's versions at
// or below the prune horizon into the base on the spot, as the pruner would.
// A hot escrow group gains a version per fold; without this its chain grew
// to hundreds of versions between two pruner rotations, and every snapshot
// read of the group resolved all of them.
const maxChainLen = 32

// stampOps promotes every pinned operation of t to a committed version at ts
// and compacts each chain the stamp leaves longer than maxChainLen. It must
// run before the transaction manager wipes t's undo chain. Compacting here is
// safe: the horizon never passes the watermark, which is below ts until
// FinishCommit, so only versions of commits that have finished stamping fold.
func (db *DB) stampOps(t *txn.Txn, ts uint64) {
	stamped, pruned := 0, 0
	var horizon uint64
	compacting := false
	for _, op := range t.Ops() {
		ch, ok := op.Pin.(*mvcc.Chain)
		if !ok {
			continue
		}
		n := ch.Stamp(op, ts)
		db.met.MVCC.ObserveChainLen(n)
		stamped++
		if n > maxChainLen {
			if !compacting {
				horizon, compacting = db.oracle.PruneHorizon(), true
			}
			pruned += mvcc.Dirty{Tree: op.Tree, Key: op.Key, Chain: ch}.Prune(horizon, db.foldVersionDeltas)
		}
	}
	db.met.MVCC.VersionsStamped.Add(int64(stamped))
	if pruned > 0 {
		db.met.MVCC.VersionsPruned.Add(int64(pruned))
	}
}

// unpinOps discards every pinned operation of t (abort without rollback —
// e.g. a failed commit-record append, where rollbackOps is not run).
func (db *DB) unpinOps(t *txn.Txn) {
	for _, op := range t.Ops() {
		unpin(op)
	}
}

// defaultMVCCPruneInterval is the default background pruner period: short
// enough that chains stay near-empty under a read-mostly load, long enough
// that an idle engine burns nothing measurable.
const defaultMVCCPruneInterval = 25 * time.Millisecond

// pruneSlices is how many steps the background pruner spreads one pass over
// the work list across.
const pruneSlices = 32

// prunerTask incrementally folds version chains up to the snapshot horizon:
// 1/pruneSlices of the work list per step, a full rotation per interval.
// Spreading the pass keeps the per-step pause and allocation burst small — a
// monolithic pass folds every hot chain and then the write set rebuilds them
// all at once, a visible throughput sawtooth on small machines.
func (db *DB) prunerTask(interval time.Duration) task {
	every := interval / pruneSlices
	if every <= 0 {
		every = interval
	}
	n := 0
	return task{name: "mvcc-pruner", every: every, step: func() {
		db.pruneChains((db.dirty.Len() + pruneSlices - 1) / pruneSlices)
		if n++; n%pruneSlices == 0 {
			db.met.MVCC.PrunePasses.Add(1)
		}
	}}
}

// PruneVersions folds every version at or below the snapshot horizon (the
// oldest active read timestamp, or the watermark when no snapshot is active)
// into its chain's base and drops quiescent chains. The background pruner
// does the same incrementally; tests and operators may call it directly. It
// returns the number of versions pruned.
func (db *DB) PruneVersions() int {
	db.met.MVCC.PrunePasses.Add(1)
	return db.pruneChains(0)
}

// pruneChains takes up to n chains (n <= 0: all) off the work list, folds
// each up to the horizon, and requeues the ones still holding versions. A
// quiescent chain leaves the tree — and takes its entry along if that is a
// tombstone.
func (db *DB) pruneChains(n int) int {
	start := time.Now()
	horizon := db.oracle.PruneHorizon()
	pruned := 0
	db.dirty.Rotate(n, func(d mvcc.Dirty) bool {
		pruned += d.Prune(horizon, db.foldVersionDeltas)
		if d.Chain.Quiescent() && db.tree(d.Tree).ReleaseChain(d.Key, d.Chain) {
			db.met.MVCC.Chains.Add(-1)
			return false
		}
		return true
	})
	if pruned > 0 {
		db.met.MVCC.VersionsPruned.Add(int64(pruned))
		if db.tracer != nil {
			db.tracer.TraceEvent(metrics.Event{Type: metrics.EventMVCCPrune, Rows: pruned, Dur: time.Since(start)})
		}
	}
	return pruned
}

// foldDeltas applies committed escrow deltas to an encoded view row using the
// view's compiled maintainer, returning the decoded result and its
// group-empty (ghost) bit; a present row is decoded into buf. A nil val is an
// absent row — the deltas fold over an empty group, the one rule that makes a
// group re-created after its erase visible.
func (db *DB) foldDeltas(tree id.Tree, val []byte, deltas []wal.ColDelta, buf record.Row) (record.Row, bool, error) {
	m := db.reg.Maintainer(tree)
	if m == nil {
		return nil, false, fmt.Errorf("core: version fold against unknown view %s", tree)
	}
	var stored record.Row
	if val == nil {
		stored = m.NewGroupRow()
	} else {
		var err error
		if stored, err = record.DecodeRowInto(buf, val); err != nil {
			return nil, false, err
		}
	}
	next, err := m.ApplyFold(stored, deltas)
	if err != nil {
		return nil, false, err
	}
	empty, err := m.GroupEmpty(next)
	if err != nil {
		return nil, false, err
	}
	return next, empty, nil
}

// foldVersionDeltas is the version-chain delta folder (mvcc.FoldFunc):
// foldDeltas, encoded for the chain's base. The folded row is encoded at
// once, so it is decoded into a buffer on the stack.
func (db *DB) foldVersionDeltas(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
	var buf [16]record.Value
	row, empty, err := db.foldDeltas(tree, val, deltas, buf[:0])
	if err != nil {
		return nil, false, err
	}
	return record.EncodeRow(row), empty, nil
}

// Checkpoint quiesces the database, writes a snapshot generation, and
// truncates the log. Concurrent transactions finish first; new ones wait.
func (db *DB) Checkpoint() error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.gate.Lock()
	defer db.gate.Unlock()
	if err := db.hit(fault.PointCheckpoint); err != nil {
		return err
	}
	writer, gen, err := recovery.CheckpointFS(db.opts.FS, db.path, db.gen, db.log, db.Catalog(), db.allTrees(), db.tm.NextID(), db.opts.SyncMode)
	if err != nil {
		return err
	}
	writer.SetObserver(&db.met.WAL, db.tracer)
	db.log = writer
	db.gen = gen
	return nil
}

// runSysTxn executes fn as a system transaction: begun, logged, and
// committed (or rolled back on error) independently of any user
// transaction, with its locks released at its own end (DESIGN.md §5).
// The caller must already be admitted through the gate.
func (db *DB) runSysTxn(fn func(st *txn.Txn) error) error {
	return db.runSysTxnHook(fn, nil)
}

// runSysTxnHook is runSysTxn with a pre-finish hook: preFinish (when non-nil)
// runs after the commit timestamp is allocated and every version stamped, but
// before FinishCommit publishes it and the locks release. A deferred view's
// watermark set here is in place before any reader sees ts and before any
// commit the system transaction's locks held back allocates a later one —
// the deferred tier's ordering rule (deferred.go).
func (db *DB) runSysTxnHook(fn func(st *txn.Txn) error, preFinish func(ts uint64)) error {
	st := db.tm.Begin(true, txn.ReadCommitted)
	db.met.Engine.SysTxns.Add(1)
	if _, err := db.log.Append(&wal.Record{Type: wal.TBegin, Txn: st.ID, Sys: true}); err != nil {
		db.tm.Abort(st)
		return err
	}
	if err := fn(st); err != nil {
		db.rollbackOps(st)
		db.log.Append(&wal.Record{Type: wal.TAbortEnd, Txn: st.ID, Sys: true})
		db.tm.Abort(st)
		db.lm.ReleaseOwner(&st.Locks)
		return err
	}
	if err := db.hit(fault.PointSysCommit); err != nil {
		db.rollbackOps(st)
		db.log.Append(&wal.Record{Type: wal.TAbortEnd, Txn: st.ID, Sys: true})
		db.tm.Abort(st)
		db.lm.ReleaseOwner(&st.Locks)
		return err
	}
	if _, err := db.log.Append(&wal.Record{Type: wal.TCommit, Txn: st.ID, Sys: true}); err != nil {
		db.unpinOps(st)
		db.tm.Abort(st)
		db.lm.ReleaseOwner(&st.Locks)
		return err
	}
	// Stamp the system transaction's versions before the manager wipes its
	// undo chain and before its locks release (so the next writer of any of
	// its rows allocates a later timestamp).
	ts := db.oracle.AllocateCommitTS()
	db.stampOps(st, ts)
	if preFinish != nil {
		preFinish(ts)
	}
	db.oracle.FinishCommit(ts)
	db.tm.Commit(st)
	db.lm.ReleaseOwner(&st.Locks)
	return nil
}

// rollbackOps applies and logs compensation records for every operation of
// t, newest first.
func (db *DB) rollbackOps(t *txn.Txn) {
	for _, op := range t.OpsSince(0) {
		clr, err := apply.Invert(db.reg, db.tree, op)
		if err != nil {
			// Inversion of a logged operation cannot legitimately fail; a
			// failure here means corrupted state, so surface it loudly.
			panic(fmt.Sprintf("core: rollback of %s failed: %v", op, err))
		}
		db.log.Append(clr)
		unpin(op)
	}
}
