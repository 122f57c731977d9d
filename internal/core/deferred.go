package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/applier"
	"repro/internal/catalog"
	"repro/internal/escrow"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/txn"
)

// This file is the control plane of the deferred view-maintenance tier
// (DESIGN.md §9). Transactions against a StrategyDeferred view accumulate
// their cell deltas in their pending set exactly like escrow views, but the
// commit fold routes them here instead of into the B-tree: the commit
// publishes one Batch (stamped with its commit timestamp) to the applier
// queue and returns. A single background goroutine owns the coalescer, folds
// the net per-(view, group) deltas into the view rows inside short system
// transactions, and advances each view's applied watermark through the
// commit-timestamp oracle.
//
// The ordering invariant everything rests on: a committer publishes its batch
// AFTER AllocateCommitTS + stampOps but BEFORE FinishCommit. The oracle's
// read timestamp therefore cannot advance past a commit whose batch is not
// yet in the queue — so a round that first reads wm := oracle.ReadTS() and
// then drains the queue holds every deferred delta of every commit with
// timestamp <= wm. It folds exactly those — a drained batch stamped above wm
// (published, not yet finished, when wm was read) goes back to the queue's
// front for the next round — and may then publish wm as each deferred view's
// watermark: the view equals its source as of wm, not merely "at least wm",
// which is what lets the scrubber check it against a recompute at wm.

// applierIdleTick is the applier's period: how often watermarks advance with
// no publish traffic, and the retry delay after a failed fold round. Every
// publish wakes the applier at once regardless.
const applierIdleTick = 5 * time.Millisecond

// applierRest is how long the applier, under load, waits for one more publish
// before starting the next round (see applierStep).
const applierRest = 25 * time.Microsecond

// deferredQueue is the unbounded multi-producer single-consumer applier
// queue. Publishers must never block — a committer publishes while still
// holding its locks, and a refresh barrier publishes while holding the view's
// tree lock the applier itself may be waiting on, so any bounded/blocking
// design here deadlocks.
type deferredQueue struct {
	mu   sync.Mutex
	msgs []applier.Msg
	wake chan struct{} // cap 1: coalesced wake-up signal
}

func newDeferredQueue() *deferredQueue {
	return &deferredQueue{wake: make(chan struct{}, 1)}
}

// push enqueues one message and wakes the applier; it returns the queue depth
// after the append (for the high-water gauge).
func (q *deferredQueue) push(m applier.Msg) int {
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	n := len(q.msgs)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return n
}

// requeue puts messages a round held back at the front of the queue, ahead
// of everything published since it drained. It does not wake the applier:
// the next publish or idle tick finds them.
func (q *deferredQueue) requeue(msgs []applier.Msg) {
	q.mu.Lock()
	q.msgs = append(msgs, q.msgs...)
	q.mu.Unlock()
}

// take removes and returns every queued message in publish order.
func (q *deferredQueue) take() []applier.Msg {
	q.mu.Lock()
	msgs := q.msgs
	q.msgs = nil
	q.mu.Unlock()
	return msgs
}

// hasBarrier reports whether a refresh/drop barrier for tree is queued.
func (q *deferredQueue) hasBarrier(tree id.Tree) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, m := range q.msgs {
		if m.Barrier != nil && m.Barrier.Tree == tree {
			return true
		}
	}
	return false
}

// errRefreshedUnderneath fails a component fold whose groups a concurrent
// refresh already incorporated.
var errRefreshedUnderneath = errSentinel("view refreshed while its deltas were being folded")

// oldestPerTree scans the queued (not yet drained) batches and returns the
// earliest publish wall clock per view tree. It is the staleness clock's view
// of work the applier has not even picked up yet — which is exactly the part
// that grows when the applier itself is stuck mid-round.
func (q *deferredQueue) oldestPerTree() map[id.Tree]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out map[id.Tree]int64
	for _, m := range q.msgs {
		if m.Batch == nil || m.Batch.WallNs == 0 {
			continue
		}
		for _, g := range m.Batch.Groups {
			if out == nil {
				out = make(map[id.Tree]int64)
			}
			if cur, ok := out[g.Tree]; !ok || m.Batch.WallNs < cur {
				out[g.Tree] = m.Batch.WallNs
			}
		}
	}
	return out
}

// publishDeferred hands one commit's deferred deltas to the applier. Called
// between stampOps and FinishCommit — see the ordering invariant above. The
// publishing transaction rides along (as Batch.Span and the trace event's Txn)
// so the flight record links the commit to the applier work it caused.
func (db *DB) publishDeferred(b *applier.Batch, t id.Txn) {
	n := db.applierQ.push(applier.Msg{Batch: b})
	db.met.Deferred.ObserveQueueDepth(n)
	db.met.Deferred.PublishedBatches.Add(1)
	db.met.Deferred.PublishedGroups.Add(int64(len(b.Groups)))
	if db.tracer != nil {
		db.tracer.TraceEvent(metrics.Event{
			Type: metrics.EventDeferredPublish,
			Txn:  t,
			Rows: len(b.Groups),
		})
	}
}

// publishDeferredBarrier tells the applier a view was recomputed from its
// base tables as of commit timestamp ts (refresh / create backfill), or
// dropped. Called from a system transaction's pre-FinishCommit hook, while
// the transaction still holds the base tables' S locks — which is what orders
// the barrier before any batch whose deltas the recompute missed.
func (db *DB) publishDeferredBarrier(tree id.Tree, ts uint64, drop bool) {
	n := db.applierQ.push(applier.Msg{Barrier: &applier.Barrier{Tree: tree, TS: ts, Drop: drop}})
	db.met.Deferred.ObserveQueueDepth(n)
}

// applierStep is the deferred-applier task's step, run on every publish's
// wake-up and on the idle tick: it drains the publish queue, folds coalesced
// deltas into the deferred views, and advances watermarks. The idle tick
// keeps watermarks tracking the oracle's read timestamp when commits publish
// nothing, and retries failed rounds.
func (db *DB) applierStep(co *applier.Coalescer) {
	db.applierRound(co)
	// When publishes outpace the rounds — one arrived while this round ran —
	// give the next one applierRest to join it before folding: a round under
	// load then folds a few commits in one system transaction instead of
	// chasing each publish with its own, and the per-round costs (begin and
	// commit records, tree locks, the top levels' folds) amortize. A commit
	// that finds the applier idle still folds at once.
	for len(db.applierQ.wake) > 0 && !db.closed.Load() {
		<-db.applierQ.wake
		select {
		case <-db.applierQ.wake:
		case <-time.After(applierRest):
		}
		db.applierRound(co)
	}
}

// applierRound is one drain-fold-publish cycle. Only the applier task calls
// it (its step, or its drain once the task has stopped); co is owned
// exclusively.
func (db *DB) applierRound(co *applier.Coalescer) {
	// Read the frontier BEFORE draining: every commit <= wm published before
	// FinishCommit let wm reach it, so the drain below captures its batch.
	wm := db.oracle.ReadTS()
	msgs := db.applierQ.take()
	var ahead []applier.Msg
	for _, m := range msgs {
		switch {
		case m.Batch != nil && m.Batch.TS > wm:
			ahead = append(ahead, m)
		case m.Batch != nil:
			in, coalesced := co.Add(m.Batch)
			db.met.Deferred.DeltasIn.Add(int64(in))
			db.met.Deferred.DeltasCoalesced.Add(int64(coalesced))
		case m.Barrier != nil:
			// Everything pending for the tree precedes the barrier in queue
			// order, so it is already incorporated in the recompute (or gone
			// with the dropped view) — held-back batches included.
			co.DropTree(m.Barrier.Tree)
			for _, a := range ahead {
				a.Batch.Groups = slices.DeleteFunc(a.Batch.Groups, func(g applier.GroupDelta) bool {
					return g.Tree == m.Barrier.Tree
				})
			}
			if m.Barrier.Drop {
				db.oracle.DropViewWatermark(m.Barrier.Tree)
			} else {
				db.oracle.AdvanceViewWatermark(m.Barrier.Tree, m.Barrier.TS)
			}
		}
	}

	if len(ahead) > 0 {
		db.applierQ.requeue(ahead)
	}

	groups := co.Take()
	// Per-view staleness clocks: while this round runs, the in-flight groups
	// (including a component a delay fault is holding hostage) keep their
	// views' staleness growing; Metrics merges this with the undrained queue.
	stale := make(map[id.Tree]int64)
	for _, g := range groups {
		if g.OldestWallNs == 0 {
			continue
		}
		if cur, ok := stale[g.Tree]; !ok || g.OldestWallNs < cur {
			stale[g.Tree] = g.OldestWallNs
		}
	}
	db.setDeferredStale(stale)
	failed := make(map[id.Tree]bool)
	var folded []deferredFold
	if len(groups) > 0 {
		// Fold rounds are gate-admitted actors like any other writer: the
		// system transactions below append to the WAL, which Checkpoint swaps
		// under the exclusive gate. (Quiescence waiters never block on the
		// applier while holding the gate — CheckConsistency waits first and
		// only polls after locking.)
		db.gate.RLock()
		start := time.Now()
		applied := 0
		var retry []applier.GroupDelta
		// Partition the round's groups into deferred cascade components: a
		// deferred parent and its (necessarily deferred) dependents fold in
		// one system transaction at one commit timestamp, so a snapshot
		// reader never observes a parent level ahead of its children.
		cat := db.Catalog()
		rootOf := make(map[id.Tree]id.Tree)
		members := make(map[id.Tree][]*catalog.View)
		for _, v := range cat.DeferredViews() {
			r := deferredComponentRoot(cat, v)
			rootOf[v.ID] = r
			members[r] = append(members[r], v)
		}
		comp := make(map[id.Tree][]applier.GroupDelta)
		var order []id.Tree
		for _, g := range groups {
			r, ok := rootOf[g.Tree]
			if !ok {
				continue // view dropped while its deltas were pending
			}
			if _, seen := comp[r]; !seen {
				order = append(order, r)
			}
			comp[r] = append(comp[r], g)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, r := range order {
			ms := members[r] // in tree-ID order, as DeferredViews lists them
			if folds, err := db.applyDeferredComponent(ms, comp[r], wm); err != nil {
				// The component's system transaction rolled back whole; keep
				// its groups pending (merging with later publishes) and hold
				// every member's watermark until a retry succeeds.
				for _, v := range ms {
					failed[v.ID] = true
				}
				retry = append(retry, comp[r]...)
			} else {
				applied += len(comp[r])
				folded = append(folded, folds...)
			}
		}
		if len(retry) > 0 {
			co.AddGroups(retry)
			db.met.Deferred.RetryRounds.Add(1)
		}
		if applied > 0 {
			db.met.Deferred.ApplyRounds.Add(1)
			db.met.Deferred.GroupsApplied.Add(int64(applied))
			db.met.Deferred.Apply.Observe(time.Since(start))
		}
		db.gate.RUnlock()
	}
	db.advanceDeferredWatermarks(wm, failed)

	// The watermark advance above is the moment this round's folds became
	// snapshot-visible: observe each folded view's commit-to-visible latency
	// (one sample per contributing publish clock) and stamp the advance with
	// the originating spans so the flight record links commit → publish →
	// fold → visible.
	if len(folded) > 0 {
		nowNs := time.Now().UnixNano()
		for _, f := range folded {
			var oldest int64
			fresh := db.met.Views.Get(f.tree)
			for _, w := range f.groupWalls {
				if oldest == 0 || w < oldest {
					oldest = w
				}
				if d := nowNs - w; d > 0 && fresh != nil {
					fresh.CommitToVisible.Observe(time.Duration(d))
				}
			}
			if db.tracer != nil {
				var age time.Duration
				if oldest != 0 && nowNs > oldest {
					age = time.Duration(nowNs - oldest)
				}
				db.tracer.TraceEvent(metrics.Event{
					Type:     metrics.EventWatermarkAdvance,
					Resource: f.name,
					Rows:     int(wm),
					Dur:      age,
					Spans:    f.spans,
				})
			}
		}
	}

	// Backlog gauges: the groups still pending and the per-view staleness
	// clocks (now only the retry groups). Metrics derives the engine-wide
	// staleness from the per-view clocks.
	db.deferredPending.Store(int64(co.Len()))
	end := make(map[id.Tree]int64)
	if co.Len() > 0 {
		for _, v := range db.Catalog().DeferredViews() {
			if w := co.OldestPendingWallNs(v.ID); w != 0 {
				end[v.ID] = w
			}
		}
	}
	db.setDeferredStale(end)
}

// setDeferredStale replaces the applier's per-view oldest-unapplied-publish
// table (wall-clock ns per view tree). Metrics reads it alongside the queue
// scan to compute each view's current staleness.
func (db *DB) setDeferredStale(m map[id.Tree]int64) {
	db.deferredStaleMu.Lock()
	db.deferredStale = m
	db.deferredStaleMu.Unlock()
}

// deferredStaleOldest returns the per-view oldest-unapplied-publish clocks:
// the applier's in-flight/retry table merged (min-wins) with the undrained
// queue. A view absent from the result is caught up.
func (db *DB) deferredStaleOldest() map[id.Tree]int64 {
	out := db.applierQ.oldestPerTree()
	db.deferredStaleMu.Lock()
	for tree, w := range db.deferredStale {
		if out == nil {
			out = make(map[id.Tree]int64)
		}
		if cur, ok := out[tree]; !ok || w < cur {
			out[tree] = w
		}
	}
	db.deferredStaleMu.Unlock()
	return out
}

// advanceDeferredWatermarks publishes wm for every deferred view in the
// catalog except those whose fold round just failed.
func (db *DB) advanceDeferredWatermarks(wm uint64, except map[id.Tree]bool) {
	for _, v := range db.Catalog().DeferredViews() {
		if !except[v.ID] {
			db.oracle.AdvanceViewWatermark(v.ID, wm)
		}
	}
}

// deferredComponentRoot walks v's source chain upward through deferred views
// and returns the topmost one's tree — the cascade component v folds under.
// Flat deferred views (source is a base table, or a non-deferred view) are
// their own component root.
func deferredComponentRoot(cat *catalog.Catalog, v *catalog.View) id.Tree {
	for {
		p, err := cat.View(v.Left)
		if err != nil || p.Strategy != catalog.StrategyDeferred {
			return v.ID
		}
		v = p
	}
}

// deferredFold is one member view's share of a successful component round:
// the rows folded into it, the originating commit spans that caused them, and
// the contributing publish clocks — everything the round needs to emit linked
// watermark-advance events and commit-to-visible samples after the advance.
type deferredFold struct {
	tree id.Tree
	name string
	rows int
	// spans are the originating commits' causal spans: the view's own input
	// groups' spans, or (for a stacked level fed only by the cascade) the
	// union across the component's inputs.
	spans []uint64
	// groupWalls are the contributing publishes' wall clocks (one commit-to-
	// visible sample each); cascade-only levels inherit the component's oldest.
	groupWalls []int64
}

// applyDeferredComponent folds one deferred cascade component's coalesced
// group deltas in a single system transaction: member trees X-lock in
// ascending ID order (the DAG's topological order, so every multi-tree locker
// agrees on the order), folds proceed in the same order with each parent row
// change cascading into its dependents through the fold queue, and the whole
// cascade commits at one timestamp — every member's watermark then advances
// together, so no reader ever sees a torn cross-level state. The applier
// still holds only this one component's locks at a time; if a user
// transaction's read entangles it in a deadlock, the system transaction rolls
// back whole and the round retries. On success it returns one deferredFold
// per member level actually folded, each stamped per-level with its
// originating spans (EventDeferredApply carries them too).
//
// wm is the round's frontier: the fold covers every deferred delta of every
// commit <= wm. The pre-finish hook publishes each member's (applyTS=fold ts,
// watermark=wm) pair through the oracle BEFORE FinishCommit makes the fold
// visible — so any snapshot timestamp at which the fold is visible was pinned
// after the pair updated. The scrubber's pair protocol (internal/scrub)
// depends on exactly this ordering.
func (db *DB) applyDeferredComponent(members []*catalog.View, groups []applier.GroupDelta, wm uint64) ([]deferredFold, error) {
	root := db.reg.Maintainer(members[0].ID)
	if root == nil {
		return nil, nil // component dropped while its deltas were pending
	}
	if err := db.hit(fault.PointDeferredApply); err != nil {
		return nil, err
	}
	// Causality of the fold: which publishes fed which member level. Direct
	// input spans/clocks attribute per tree; cascade-only levels (stacked
	// children with no direct deltas) inherit the whole component's.
	inSpans := make(map[id.Tree][]uint64)
	inWalls := make(map[id.Tree][]int64)
	var compSpans []uint64
	var compOldest int64
	for _, g := range groups {
		inSpans[g.Tree] = applier.MergeSpans(inSpans[g.Tree], g.Spans)
		compSpans = applier.MergeSpans(compSpans, g.Spans)
		if g.OldestWallNs != 0 {
			inWalls[g.Tree] = append(inWalls[g.Tree], g.OldestWallNs)
			if compOldest == 0 || g.OldestWallNs < compOldest {
				compOldest = g.OldestWallNs
			}
		}
	}
	start := time.Now()
	var folds []deferredFold
	err := db.runSysTxnHook(func(st *txn.Txn) error {
		folds = folds[:0] // a retried closure starts the tally over
		for _, v := range members {
			if err := db.lockTree(st, v.ID, lock.ModeX); err != nil {
				return err
			}
			// A refresh that held this lock while the round's groups sat
			// drained has already recomputed them into the view; its barrier
			// (published before it released the lock) is in the queue. Folding
			// now would apply them twice: fail the round instead, so the groups
			// return to the coalescer and the barrier drops them next round.
			if db.applierQ.hasBarrier(v.ID) {
				return errRefreshedUnderneath
			}
		}
		// The round's coalescing set: the type a committing transaction folds
		// from, fed here from the coalescer's groups.
		foldStart := time.Now()
		p := escrow.NewPending()
		for _, g := range groups {
			pg, _ := p.Group(g.Tree, []byte(g.Key))
			for _, d := range g.Deltas {
				pg.Add(d.Col, escrow.Delta{Int: d.Int, Float: d.Float})
			}
		}
		folded, _, err := db.foldSet(st, p)
		if err != nil {
			return err
		}
		db.billFolds(folded, time.Since(foldStart))
		for _, f := range folded {
			level := deferredFold{tree: f.v.ID, name: f.v.Name, rows: f.rows}
			if level.spans = inSpans[level.tree]; len(level.spans) == 0 {
				level.spans = compSpans
			}
			if level.groupWalls = inWalls[level.tree]; len(level.groupWalls) == 0 && compOldest != 0 {
				level.groupWalls = []int64{compOldest}
			}
			folds = append(folds, level)
		}
		return nil
	}, func(ts uint64) {
		// Publish the (fold ts, frontier) pair before FinishCommit: the
		// scrubber's pair-read/snapshot-pin ordering is sound only because a
		// fold visible at a pinned timestamp already updated the pair.
		for _, v := range members {
			db.oracle.AdvanceViewApplied(v.ID, ts, wm)
		}
	})
	if err != nil {
		return nil, err
	}
	if db.tracer != nil {
		dur := time.Since(start)
		for _, f := range folds {
			db.tracer.TraceEvent(metrics.Event{
				Type:     metrics.EventDeferredApply,
				Resource: f.name,
				Rows:     f.rows,
				Dur:      dur,
				Spans:    f.spans,
			})
		}
	}
	return folds, nil
}

// ViewWatermark reports the highest commit timestamp whose effects are
// visible in the view: the applier's applied watermark for a deferred view,
// or the oracle's read timestamp for an immediately maintained one (which is
// never stale).
func (db *DB) ViewWatermark(viewName string) (uint64, error) {
	v, err := db.Catalog().View(viewName)
	if err != nil {
		return 0, err
	}
	if v.Strategy != catalog.StrategyDeferred {
		return db.oracle.ReadTS(), nil
	}
	return db.oracle.ViewWatermark(v.ID), nil
}

// WaitForViewWatermark blocks until the view's watermark reaches ts or ctx is
// done. It is the read-your-writes barrier for deferred views: wait for your
// own Tx.CommitTS and the applier has folded your deltas. Immediate views
// satisfy any wait at once.
func (db *DB) WaitForViewWatermark(ctx context.Context, viewName string, ts uint64) error {
	v, err := db.Catalog().View(viewName)
	if err != nil {
		return err
	}
	if v.Strategy != catalog.StrategyDeferred {
		return nil
	}
	return db.oracle.WaitForViewWatermark(ctx, v.ID, ts)
}

// ViewWatermark is DB.ViewWatermark scoped to the transaction's database —
// the handle a reader already holds.
func (tx *Tx) ViewWatermark(viewName string) (uint64, error) {
	return tx.db.ViewWatermark(viewName)
}

// waitDeferredCaughtUp blocks until every deferred view's watermark reaches
// the oracle's current read timestamp — i.e. the applier has folded
// everything committed before the call.
func (db *DB) waitDeferredCaughtUp(timeout time.Duration) error {
	views := db.Catalog().DeferredViews()
	if len(views) == 0 {
		return nil
	}
	target := db.oracle.ReadTS()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for _, v := range views {
		if err := db.oracle.WaitForViewWatermark(ctx, v.ID, target); err != nil {
			return fmt.Errorf("core: deferred view %q watermark %d still behind read-ts %d: %w",
				v.Name, db.oracle.ViewWatermark(v.ID), target, err)
		}
	}
	return nil
}

// deferredCaughtUp reports (without blocking) whether every deferred view's
// watermark has reached the current read timestamp.
func (db *DB) deferredCaughtUp() bool {
	target := db.oracle.ReadTS()
	for _, v := range db.Catalog().DeferredViews() {
		if db.oracle.ViewWatermark(v.ID) < target {
			return false
		}
	}
	return true
}
