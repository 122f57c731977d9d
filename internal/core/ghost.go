package core

import (
	"context"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/wal"
)

// CleanGhosts erases every erasable ghost row across all aggregate views,
// returning how many it removed; the ghost-cleaner task runs it every
// GhostCleanInterval (DESIGN.md §5), so zero-count ghost rows left behind by
// commit folds are physically erased by system transactions, asynchronously
// to user work. A ghost is erasable when the cleaner can take
// its X lock — under IX on the view's tree — without waiting long: a
// transaction with pending deltas against the row holds its E lock (or, after
// escalation, the tree's X lock) until it ends, so the lock manager alone
// keeps the row in place for that transaction's commit fold.
func (db *DB) CleanGhosts() int {
	if db.closed.Load() {
		return 0
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	start := db.clock.Now()
	erased, backlog := 0, 0
	for _, v := range db.Catalog().Views() {
		if v.Kind != catalog.ViewAggregate {
			continue
		}
		tree := db.tree(v.ID)
		if tree.GhostCount() == 0 {
			continue
		}
		erased += db.cleanViewGhosts(v)
		// Whatever survives the sweep (held E locks) is the cleaner's backlog.
		backlog += tree.GhostCount()
	}
	db.met.Ghost.ObservePass(backlog)
	if db.tracer != nil {
		end := db.clock.Now()
		db.tracer.TraceEvent(metrics.Event{Type: metrics.EventGhostClean, Dur: time.Duration(end - start), Rows: erased, WallNs: db.clock.WallNs(end)})
	}
	return erased
}

// ghostLockWait bounds the cleaner's lock waits: it would rather skip a ghost
// someone is using than queue behind them.
const ghostLockWait = 5 * time.Millisecond

// cleanViewGhosts erases the erasable ghosts of one view, each in its own
// system transaction. It copies the keys of the ghosts alone: a pass over a
// view of many live groups and a few held ghosts allocates for the ghosts.
func (db *DB) cleanViewGhosts(v *catalog.View) int {
	tree := db.tree(v.ID)
	var keys [][]byte
	tree.Scan(nil, nil, true, func(it btree.Item) bool {
		if it.Ghost {
			keys = append(keys, append([]byte(nil), it.Key...))
		}
		return true
	})
	erased := 0
	treeRes := lock.TreeResource(v.ID)
	for _, key := range keys {
		// A ghost in use is skipped before anything is logged or queued: a
		// system transaction that only aborts still costs two log records,
		// and a queued X request stalls the key's next E requester. (The
		// tree is not asked the same way: its X holders — an applier round,
		// a refresh — are brief, and giving way to each would starve the
		// sweep; a tree held for long costs one aborted transaction a pass.)
		keyRes := lock.KeyResource(v.ID, key)
		if !db.lm.Free(keyRes, lock.ModeX) {
			continue
		}
		err := db.runSysTxn(func(st *txn.Txn) error {
			// Hierarchical locking like any other writer: IX on the tree, so a
			// holder whose key locks were escalated to a tree lock excludes the
			// cleaner too, then a short X on the key, which keeps user
			// transactions from acquiring E while we erase. The waits only
			// cover a holder that arrived since the check above.
			if _, err := db.lm.Acquire(context.Background(), &st.Locks, treeRes, lock.ModeIX, ghostLockWait); err != nil {
				return errTreeBusy
			}
			if _, err := db.lm.Acquire(context.Background(), &st.Locks, keyRes, lock.ModeX, ghostLockWait); err != nil {
				return err
			}
			latch := db.structLatch(v.ID, key)
			latch.Lock()
			defer latch.Unlock()
			cur, ghost, ok := tree.Get(key)
			if !ok || !ghost {
				return errSkipGhost
			}
			if err := db.hit(fault.PointGhostErase); err != nil {
				return err
			}
			rec := &wal.Record{Type: wal.TDelete, Tree: v.ID, Key: key, OldVal: cur, OldGhost: true}
			return db.logOp(st, rec)
		})
		if err == errTreeBusy {
			break // the tree lock's holder covers every remaining key as well
		}
		if err == nil {
			erased++
			db.met.Ghost.Erased.Add(1)
		}
	}
	return erased
}

// errSkipGhost aborts a cleaning system transaction without treating the
// skip as a failure; errTreeBusy ends a view's sweep when its tree is locked.
var (
	errSkipGhost = errSentinel("ghost not erasable")
	errTreeBusy  = errSentinel("view tree locked against the ghost cleaner")
)

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
