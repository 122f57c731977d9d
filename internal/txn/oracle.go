package txn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
)

// ErrViewWatermarkDropped reports that the deferred view a waiter was blocked
// on was dropped before its watermark reached the requested timestamp.
var ErrViewWatermarkDropped = errors.New("txn: view watermark dropped")

// Oracle is the engine's commit-timestamp allocator and snapshot registry —
// the timestamp side of the multi-version read path (DESIGN.md §8).
//
// Committers allocate a monotonic commit timestamp after their commit record
// is durable and finish it once every version they wrote is stamped; the
// oracle publishes a *watermark*: the highest timestamp ts such that every
// commit with timestamp <= ts has fully stamped its versions. Snapshot
// readers pin the watermark at Begin, so a reader never observes a commit
// whose versions are still being written — visibility is a single integer
// comparison, with no locks and no blocking of writers.
//
// The registry of active snapshots supplies the version-chain pruner's
// horizon: the oldest pinned read timestamp (or the watermark when no
// snapshot is active). Versions at or below the horizon can be folded into
// the chain base without changing what any live reader resolves.
type Oracle struct {
	mu   sync.Mutex
	next uint64 // last allocated commit timestamp
	// inflight holds allocated-but-unfinished commit timestamps. It is
	// bounded by the number of concurrently committing transactions, so the
	// min scan in finish stays cheap.
	inflight map[uint64]struct{}

	// watermark is published atomically so ReadTS never takes mu.
	watermark atomic.Uint64

	snapMu    sync.Mutex
	snaps     map[uint64]snapEntry
	nextSnap  uint64
	snapCount atomic.Int64
	began     atomic.Int64

	// viewMu guards the per-view applied watermarks of deferred views
	// (DESIGN.md §9): the highest commit timestamp whose effects the
	// background applier has folded into each view. viewWake is closed and
	// replaced whenever any view watermark advances, so waiters poll by
	// generation instead of spinning.
	viewMu   sync.Mutex
	viewWM   map[id.Tree]uint64
	viewWake chan struct{}
	// viewApply holds, per deferred view, the commit timestamp of the last
	// applier fold that wrote the view's tree. Together with viewWM it forms
	// the scrubber's apply pair (ViewApplied): the view's stored contents at
	// any snapshot timestamp >= viewApply — and before the next fold — equal
	// a recompute over the view's source at viewWM.
	viewApply map[id.Tree]uint64
	// viewDropped records trees whose watermark was dropped, so a waiter that
	// re-observes after DropViewWatermark distinguishes "dropped" from "not
	// yet published" and gives up instead of blocking forever. Tree IDs are
	// never reused, so the set only grows — bounded by DDL volume, not load.
	viewDropped map[id.Tree]struct{}
}

type snapEntry struct {
	ts      uint64
	started time.Time
}

// NewOracle returns an oracle whose first commit timestamp is 1.
func NewOracle() *Oracle {
	return &Oracle{
		inflight:    make(map[uint64]struct{}),
		snaps:       make(map[uint64]snapEntry),
		viewWM:      make(map[id.Tree]uint64),
		viewApply:   make(map[id.Tree]uint64),
		viewWake:    make(chan struct{}),
		viewDropped: make(map[id.Tree]struct{}),
	}
}

// AllocateCommitTS returns the next commit timestamp and marks it in flight:
// the watermark will not advance past it until FinishCommit. Callers must
// allocate only once their commit is decided (the commit record is durable)
// and must call FinishCommit after stamping every version — the window in
// between is the only time the watermark is held back.
func (o *Oracle) AllocateCommitTS() uint64 {
	o.mu.Lock()
	o.next++
	ts := o.next
	o.inflight[ts] = struct{}{}
	o.mu.Unlock()
	return ts
}

// FinishCommit retires an in-flight commit timestamp and republishes the
// watermark: the timestamp just below the oldest still-in-flight commit, or
// the allocator head when none is.
func (o *Oracle) FinishCommit(ts uint64) {
	o.mu.Lock()
	delete(o.inflight, ts)
	wm := o.next
	for f := range o.inflight {
		if f-1 < wm {
			wm = f - 1
		}
	}
	o.watermark.Store(wm)
	o.mu.Unlock()
}

// ReadTS returns the current watermark — the timestamp a new snapshot would
// pin. Lock-free.
func (o *Oracle) ReadTS() uint64 { return o.watermark.Load() }

// BeginSnapshot pins the current watermark as a read timestamp and registers
// it as active, returning the timestamp and a handle for EndSnapshot. The
// watermark is read under the registry lock so a concurrently computed prune
// horizon can never pass a snapshot that is still registering.
func (o *Oracle) BeginSnapshot() (ts, handle uint64) {
	o.snapMu.Lock()
	ts = o.watermark.Load()
	o.nextSnap++
	handle = o.nextSnap
	o.snaps[handle] = snapEntry{ts: ts, started: time.Now()}
	o.snapMu.Unlock()
	o.snapCount.Add(1)
	o.began.Add(1)
	return ts, handle
}

// BeginSnapshotAt pins ts — a timestamp in the past, typically a deferred
// view's watermark — as an active snapshot, provided ts is still at or above
// the prune horizon. It returns ok=false when the horizon has already passed
// ts (the versions a reader at ts needs may be folded away); callers retry
// with a fresher timestamp. The horizon is computed under the registry lock,
// so a concurrently computed prune horizon can never pass a successfully
// registered timestamp: the horizon is monotonic, and any in-flight prune
// pass used a horizon at or below the one admitting ts.
func (o *Oracle) BeginSnapshotAt(ts uint64) (handle uint64, ok bool) {
	o.snapMu.Lock()
	if ts < o.pruneHorizonLocked() {
		o.snapMu.Unlock()
		return 0, false
	}
	o.nextSnap++
	handle = o.nextSnap
	o.snaps[handle] = snapEntry{ts: ts, started: time.Now()}
	o.snapMu.Unlock()
	o.snapCount.Add(1)
	o.began.Add(1)
	return handle, true
}

// EndSnapshot retires an active snapshot.
func (o *Oracle) EndSnapshot(handle uint64) {
	o.snapMu.Lock()
	if _, ok := o.snaps[handle]; ok {
		delete(o.snaps, handle)
		o.snapCount.Add(-1)
	}
	o.snapMu.Unlock()
}

// ActiveSnapshots returns the number of registered snapshots.
func (o *Oracle) ActiveSnapshots() int64 { return o.snapCount.Load() }

// SnapshotsBegun returns the cumulative count of snapshots ever pinned.
func (o *Oracle) SnapshotsBegun() int64 { return o.began.Load() }

// OldestSnapshotAge returns how long the oldest active snapshot has been
// pinned, or zero when none is active.
func (o *Oracle) OldestSnapshotAge(now time.Time) time.Duration {
	o.snapMu.Lock()
	defer o.snapMu.Unlock()
	var oldest time.Time
	for _, e := range o.snaps {
		if oldest.IsZero() || e.started.Before(oldest) {
			oldest = e.started
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// PruneHorizon returns the version-chain pruning horizon: the minimum of the
// oldest active snapshot's read timestamp and every deferred view's applied
// watermark, or the commit watermark when neither holds it back. State at or
// below the horizon can be collapsed — every live and future reader resolves
// at a timestamp >= the horizon. Deferred view watermarks participate so the
// scrubber (and any other watermark-timestamp reader) can always pin a
// view's watermark with BeginSnapshotAt: with bounded staleness the applied
// watermark tracks the commit watermark within one applier interval, so the
// extra retention is a few milliseconds of versions.
func (o *Oracle) PruneHorizon() uint64 {
	o.snapMu.Lock()
	defer o.snapMu.Unlock()
	return o.pruneHorizonLocked()
}

// pruneHorizonLocked computes the horizon; the caller holds snapMu. It takes
// viewMu inside snapMu — that order (snapMu, then viewMu) is the lock order
// everywhere the two meet.
func (o *Oracle) pruneHorizonLocked() uint64 {
	h := o.watermark.Load()
	for _, e := range o.snaps {
		if e.ts < h {
			h = e.ts
		}
	}
	o.viewMu.Lock()
	for _, wm := range o.viewWM {
		if wm < h {
			h = wm
		}
	}
	o.viewMu.Unlock()
	return h
}

// AdvanceViewWatermark publishes that every commit with timestamp <= ts has
// been applied to the deferred view: AdvanceViewApplied without a fold.
func (o *Oracle) AdvanceViewWatermark(tree id.Tree, ts uint64) {
	o.AdvanceViewApplied(tree, 0, ts)
}

// AdvanceViewApplied publishes one applier fold round's outcome for a
// deferred view as an atomic pair: applyTS is the fold transaction's commit
// timestamp (the moment the view's new contents became snapshot-visible) and
// wm the source frontier it applied — every source commit <= wm is now
// folded in. Between this fold and the next one, the view's stored rows at
// any snapshot timestamp >= applyTS equal a recompute over the source at wm.
// Both components are monotonic: a stale pair is a no-op. An advance of the
// watermark wakes any WaitForViewWatermark callers. Any pair for a dropped
// view is a no-op too — an applier round that read the catalog before the
// drop must not bring the watermark back and hold the prune horizon there.
func (o *Oracle) AdvanceViewApplied(tree id.Tree, applyTS, wm uint64) {
	o.viewMu.Lock()
	defer o.viewMu.Unlock()
	if _, dropped := o.viewDropped[tree]; dropped {
		return
	}
	if applyTS > o.viewApply[tree] {
		o.viewApply[tree] = applyTS
	}
	if wm > o.viewWM[tree] {
		o.viewWM[tree] = wm
		close(o.viewWake)
		o.viewWake = make(chan struct{})
	}
}

// ViewApplied returns the deferred view's apply pair — the last fold's
// commit timestamp and the applied source watermark — read atomically.
// applyTS is zero when the applier has never folded into the view (a
// freshly created or purely idle view); wm is zero when no watermark has
// been published at all.
func (o *Oracle) ViewApplied(tree id.Tree) (applyTS, wm uint64) {
	o.viewMu.Lock()
	applyTS = o.viewApply[tree]
	wm = o.viewWM[tree]
	o.viewMu.Unlock()
	return applyTS, wm
}

// DropViewWatermark forgets a dropped view's watermark and records the drop,
// waking waiters unconditionally so a wait against the dropped view
// re-observes and returns ErrViewWatermarkDropped — even a waiter that was
// blocked before the view ever published a watermark.
func (o *Oracle) DropViewWatermark(tree id.Tree) {
	o.viewMu.Lock()
	delete(o.viewWM, tree)
	delete(o.viewApply, tree)
	o.viewDropped[tree] = struct{}{}
	close(o.viewWake)
	o.viewWake = make(chan struct{})
	o.viewMu.Unlock()
}

// ViewWatermark returns the deferred view's applied watermark (zero when the
// applier has not yet published one).
func (o *Oracle) ViewWatermark(tree id.Tree) uint64 {
	o.viewMu.Lock()
	wm := o.viewWM[tree]
	o.viewMu.Unlock()
	return wm
}

// ViewWatermarks returns a copy of every published view watermark.
func (o *Oracle) ViewWatermarks() map[id.Tree]uint64 {
	o.viewMu.Lock()
	out := make(map[id.Tree]uint64, len(o.viewWM))
	for t, wm := range o.viewWM {
		out[t] = wm
	}
	o.viewMu.Unlock()
	return out
}

// WaitForViewWatermark blocks until the deferred view's watermark reaches ts
// or ctx is done (returning ctx's error). It is the read-your-writes barrier:
// a reader that waits for its own commit timestamp is guaranteed the applier
// has folded that commit's deltas into the view. If the view is dropped while
// the waiter is blocked, it returns ErrViewWatermarkDropped rather than
// hanging on a watermark that will never advance.
func (o *Oracle) WaitForViewWatermark(ctx context.Context, tree id.Tree, ts uint64) error {
	for {
		o.viewMu.Lock()
		wm := o.viewWM[tree]
		_, dropped := o.viewDropped[tree]
		wake := o.viewWake
		o.viewMu.Unlock()
		if wm >= ts {
			return nil
		}
		if dropped {
			return ErrViewWatermarkDropped
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
