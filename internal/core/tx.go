package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/applier"
	"repro/internal/apply"
	"repro/internal/escrow"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/view"
	"repro/internal/wal"
)

// Tx is a user transaction handle. It is not safe for concurrent use by
// multiple goroutines (like database/sql's Tx).
type Tx struct {
	db *DB
	// t is held by value, so a transaction is one allocation.
	t    txn.Txn
	done bool

	// readTS and snap are set for Snapshot-isolation transactions: the pinned
	// read timestamp and the oracle's registry handle. ro marks the read-only
	// fast path (no logging, no locks).
	readTS uint64
	snap   uint64
	ro     bool

	// commitTS is the commit timestamp allocated by a successful Commit (zero
	// until then, and forever for read-only or rolled-back transactions).
	commitTS uint64

	// pending holds the escrow deltas the transaction's statements produced
	// against escrow and deferred views, until commit folds (or publishes)
	// them and abort drops them. Nil until the first view touch. Only the
	// transaction's own goroutine reads it; everyone else sees the atomics it
	// moves (escrow.pending_rows, the hot-delta sketch).
	pending *escrow.Pending
}

// TxOptions configure one transaction started with BeginTx. The zero value
// selects ReadCommitted isolation and the engine-wide lock timeout.
type TxOptions struct {
	// Isolation is the transaction's isolation level (default ReadCommitted).
	Isolation txn.Level
	// LockTimeout, when positive, overrides Options.LockTimeout for this
	// transaction's lock waits.
	LockTimeout time.Duration
	// ReadOnly selects the snapshot read fast path: the transaction skips
	// begin/commit logging, escrow maintenance, and the lock manager entirely,
	// and every write returns ErrReadOnly. It requires (and, when Isolation
	// is zero, implies) Snapshot isolation.
	ReadOnly bool
}

// Begin starts a user transaction at the given isolation level. It is
// equivalent to BeginTx with a background context.
func (db *DB) Begin(level txn.Level) (*Tx, error) {
	return db.BeginTx(context.Background(), TxOptions{Isolation: level})
}

// BeginTx starts a user transaction governed by ctx: cancelling ctx aborts
// the transaction's in-flight lock waits (the wait returns a wrapped
// ctx.Err()). The ctx does not otherwise interrupt running statements.
func (db *DB) BeginTx(ctx context.Context, opts TxOptions) (*Tx, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	start := db.clock.Now()
	level := opts.Isolation
	if level == 0 {
		if opts.ReadOnly {
			level = txn.Snapshot
		} else {
			level = txn.ReadCommitted
		}
	}
	if opts.ReadOnly && level != txn.Snapshot {
		return nil, ErrSnapshotOnly
	}
	db.gate.RLock()
	if db.closed.Load() {
		db.gate.RUnlock()
		return nil, ErrClosed
	}
	tx := &Tx{db: db, ro: opts.ReadOnly}
	t := &tx.t
	db.tm.Start(t, false, level)
	t.Ctx = ctx
	t.LockTimeout = opts.LockTimeout
	t.Started = start
	if tx.ro {
		// The read fast path's begin is one clock reading, shared by the
		// lifetime, the snapshot's age and the Begin histogram (a zero
		// sample: nothing is appended), and no trace event: the tx-end event
		// finish records carries the lifetime and the read timestamp.
		// Read-only snapshot transactions never log: they write nothing, so
		// recovery has nothing to learn from them — skipping the begin/commit
		// records keeps the read fast path off the WAL entirely.
		db.met.Txn.Begin.Observe(0)
		tx.readTS, tx.snap = db.oracle.BeginSnapshotFrom(start)
		return tx, nil
	}
	if _, err := db.log.Append(&wal.Record{Type: wal.TBegin, Txn: t.ID}); err != nil {
		db.tm.Abort(t)
		db.gate.RUnlock()
		return nil, err
	}
	began := db.clock.Now()
	db.met.Txn.Begin.Observe(time.Duration(began - start))
	if db.tracer != nil {
		db.tracer.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: t.ID, WallNs: db.clock.WallNs(began)})
	}
	if level == txn.Snapshot {
		tx.readTS, tx.snap = db.oracle.BeginSnapshotFrom(began)
		if db.tracer != nil {
			db.tracer.TraceEvent(metrics.Event{Type: metrics.EventSnapshotBegin, Txn: t.ID, Rows: int(tx.readTS), WallNs: db.clock.WallNs(began)})
		}
	}
	return tx, nil
}

// ID returns the transaction's identifier.
func (tx *Tx) ID() id.Txn { return tx.t.ID }

// Isolation returns the transaction's isolation level.
func (tx *Tx) Isolation() txn.Level { return tx.t.Isolation }

// CommitTS returns the transaction's commit timestamp: zero until Commit
// succeeds (and always zero for read-only transactions, which allocate none).
// Passing it to DB.WaitForViewWatermark is the read-your-writes barrier for
// deferred views.
func (tx *Tx) CommitTS() uint64 { return tx.commitTS }

func (tx *Tx) check() error {
	if tx.done {
		return ErrTxnDone
	}
	return nil
}

// writeCheck additionally rejects writes in read-only transactions.
func (tx *Tx) writeCheck() error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.ro {
		return ErrReadOnly
	}
	return nil
}

// Commit folds the transaction's pending escrow deltas into the view rows
// (logging one EscrowFold per row), writes and group-commits the commit
// record, and releases locks.
func (tx *Tx) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	db := tx.db
	if tx.ro {
		// Nothing written, nothing logged: retiring the snapshot is the whole
		// commit.
		tx.finish(true, 0)
		return nil
	}
	// One clock read per phase boundary: the fold's end, the commit record's
	// append (the start of the commit wait) and the wait's end, which also
	// stamps the deferred publish.
	start := db.clock.Now()
	var deferred []applier.GroupDelta
	var folded []viewFolds
	if p := tx.takePending(); p != nil {
		var err error
		if deferred, folded, err = db.foldPending(&tx.t, p, start); err != nil {
			// Fold failure (e.g. a log fault) aborts the transaction; already-
			// applied folds are compensated by the generic rollback.
			db.met.Escrow.FoldAborts.Add(1)
			tx.rollback()
			return fmt.Errorf("core: commit failed, transaction rolled back: %w", err)
		}
	}
	lsn, err := db.log.Append(&wal.Record{Type: wal.TCommit, Txn: tx.t.ID})
	if err != nil {
		tx.rollback()
		return fmt.Errorf("core: commit failed, transaction rolled back: %w", err)
	}
	appended := db.clock.Now()
	if err := db.log.SyncTxn(lsn, tx.t.ID); err != nil {
		// The commit record may or may not be durable; treat as failed and
		// roll back in memory so the surviving state matches recovery's
		// worst case view (recovery decides by what actually reached disk).
		tx.rollback()
		return fmt.Errorf("core: commit sync failed, transaction rolled back: %w", err)
	}
	durable := db.clock.Now()
	db.met.Txn.CommitWait.Observe(time.Duration(durable - appended))
	// The commit is durable: allocate its timestamp, stamp every pinned
	// version (before finish wipes the op chain and releases locks — the next
	// writer of any of these rows must allocate a later timestamp), and only
	// then let the watermark advance over it.
	ts := db.oracle.AllocateCommitTS()
	db.stampOps(&tx.t, ts)
	tx.commitTS = ts
	if len(deferred) > 0 {
		// Publish before FinishCommit: the oracle's read timestamp must not
		// reach ts until this batch is queued, or an applier round could
		// advance the view watermark past a commit it never saw (deferred.go).
		db.publishDeferred(&applier.Batch{
			TS:     ts,
			WallNs: db.clock.WallNs(durable),
			Groups: deferred,
		}, tx.t.ID)
	}
	db.oracle.FinishCommit(ts)
	var end int64
	if len(folded) > 0 || db.tracer != nil {
		end = db.clock.Now()
	}
	// Immediately maintained views are visible the moment the commit finishes:
	// their commit-to-visible latency IS the commit path.
	for _, f := range folded {
		if v := db.met.Views.Get(f.v.ID); v != nil {
			v.CommitToVisible.Observe(time.Duration(end - start))
		}
	}
	tx.finish(true, end)
	return nil
}

// Savepoint marks a statement-level rollback point inside the transaction.
type Savepoint struct {
	ops txn.Savepoint
	// pending is a copy of the transaction's pending set as of the mark: the
	// set is a handful of groups, so copying it is cheaper than journaling
	// every delta of every transaction for the few that ever roll back.
	pending []escrow.Group
}

// Savepoint returns a marker for partial rollback with RollbackTo.
func (tx *Tx) Savepoint() (Savepoint, error) {
	if err := tx.check(); err != nil {
		return Savepoint{}, err
	}
	sp := Savepoint{ops: tx.t.Savepoint()}
	if tx.pending != nil {
		sp.pending = tx.pending.Snapshot()
	}
	return sp, nil
}

// RollbackTo undoes everything the transaction did after the savepoint:
// logged operations are compensated (with CLRs) in reverse order and the
// pending escrow deltas return to what they were at the mark. Locks acquired
// since remain held (standard savepoint semantics). The transaction stays
// active.
func (tx *Tx) RollbackTo(sp Savepoint) error {
	if err := tx.check(); err != nil {
		return err
	}
	db := tx.db
	for _, op := range tx.t.OpsSince(sp.ops) {
		clr, err := apply.Invert(db.reg, db.tree, op)
		if err != nil {
			return fmt.Errorf("core: savepoint rollback of %s: %w", op, err)
		}
		if _, err := db.log.Append(clr); err != nil {
			return err
		}
		unpin(op)
	}
	if p := tx.pending; p != nil {
		before := p.Len()
		p.Restore(sp.pending)
		db.met.Escrow.PendingRows.Add(int64(p.Len() - before))
	}
	return nil
}

// Rollback undoes the transaction: pending escrow deltas are dropped, and
// every logged operation is compensated in reverse order.
func (tx *Tx) Rollback() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.rollback()
	return nil
}

func (tx *Tx) rollback() {
	db := tx.db
	if tx.ro {
		tx.finish(false, 0)
		return
	}
	db.rollbackOps(&tx.t)
	db.log.Append(&wal.Record{Type: wal.TAbortEnd, Txn: tx.t.ID})
	tx.finish(false, 0)
}

// takePending detaches the transaction's pending set, taking its groups off
// the pending-rows gauge: commit takes it to fold, every other ending to drop.
func (tx *Tx) takePending() *escrow.Pending {
	p := tx.pending
	if p != nil {
		tx.pending = nil
		tx.db.met.Escrow.PendingRows.Add(-int64(p.Len()))
	}
	return p
}

// finish ends the transaction. end is the caller's last clock reading, when
// it has a current one (zero: finish reads the clock itself if a tracer wants
// the transaction's lifetime). A read-only snapshot transaction's tx-end is
// the only event it records: its Rows carry the read timestamp, and its
// begin is WallNs − Dur.
func (tx *Tx) finish(committed bool, end int64) {
	db := tx.db
	if committed {
		db.tm.Commit(&tx.t)
		db.met.Engine.Commits.Add(1)
	} else {
		db.tm.Abort(&tx.t)
		db.met.Engine.Aborts.Add(1)
	}
	if tx.snap != 0 {
		db.oracle.EndSnapshot(tx.snap)
	}
	tx.done = true
	// The end is traced before the locks go, so a waiter they release is
	// granted after it in the recorded history.
	if db.tracer != nil {
		outcome := "commit"
		if !committed {
			outcome = "abort"
		}
		if end == 0 {
			end = db.clock.Now()
		}
		e := metrics.Event{Type: metrics.EventTxEnd, Txn: tx.t.ID, Dur: time.Duration(end - tx.t.Started), Outcome: outcome, WallNs: db.clock.WallNs(end)}
		if tx.ro {
			e.Rows = int(tx.readTS)
		}
		db.tracer.TraceEvent(e)
	}
	if !tx.ro {
		tx.takePending()
		db.lm.ReleaseOwner(&tx.t.Locks)
	}
	db.gate.RUnlock()
}

// foldPending folds the transaction's pending set at commit (foldSet) and
// accounts for the fold phase, which began at start. Groups of deferred views
// are not folded: they come back as per-group deltas for the commit to
// publish to the background applier (deferred.go), which runs the cascade
// below a deferred parent itself. The second result lists the immediately
// maintained views folded.
func (db *DB) foldPending(t *txn.Txn, p *escrow.Pending, start int64) ([]applier.GroupDelta, []viewFolds, error) {
	folded, deferred, err := db.foldSet(t, p)
	if err != nil || len(folded) == 0 {
		return deferred, nil, err
	}
	end := db.clock.Now()
	dur := time.Duration(end - start)
	total := db.billFolds(folded, dur)
	db.met.Txn.Fold.Observe(dur)
	db.met.Escrow.ObserveFold(total)
	if db.tracer != nil {
		db.tracer.TraceEvent(metrics.Event{Type: metrics.EventFold, Txn: t.ID, Dur: dur, Rows: total, WallNs: db.clock.WallNs(end)})
	}
	return deferred, folded, nil
}

// foldRow folds one view row under the structure latch, returning the after
// image and, when cascade is set, the before image the caller's cascade
// needs. createIfMissing folds against
// a fresh empty group when the row is absent (stacked and deferred views:
// their rows are created by the cascade or applier itself, with no ghost
// pre-creation at DML time); otherwise an absent row is a protocol bug — the
// ghost a transaction targeted cannot be erased while it holds the row's E
// lock. The caller bills the fold's time (billFolds).
func (db *DB) foldRow(t *txn.Txn, m *view.Maintainer, key []byte, deltas []wal.ColDelta, createIfMissing, cascade bool) (foldResult, error) {
	if err := db.hit(fault.PointFold); err != nil {
		return foldResult{}, err
	}
	tid := m.V.ID
	latch := db.structLatch(tid, key)
	latch.Lock()
	defer latch.Unlock()
	tree := db.tree(tid)
	cur, oldGhost, ok := tree.Get(key)
	var stored record.Row
	var err error
	switch {
	case ok:
		if stored, err = record.DecodeRow(cur); err != nil {
			return foldResult{}, err
		}
	case createIfMissing:
		stored = m.NewGroupRow()
		oldGhost = true
	default:
		return foldResult{}, fmt.Errorf("core: fold target %s[%x] missing", tid, key)
	}
	// ApplyFold mutates in place; keep the pre-image for the cascade.
	var old record.Row
	if cascade {
		old = append(old, stored...)
	}
	next, err := m.ApplyFold(stored, deltas)
	if err != nil {
		return foldResult{}, err
	}
	empty, err := m.GroupEmpty(next)
	if err != nil {
		return foldResult{}, err
	}
	rec := &wal.Record{
		Type:     wal.TEscrowFold,
		Tree:     tid,
		Key:      key,
		Deltas:   deltas,
		OldGhost: oldGhost,
		NewGhost: empty,
	}
	// Inline logOp's append/apply/record sequence, applying the fold we just
	// computed instead of re-running the generic redo (which would decode and
	// fold the row a second time).
	rec.Txn = t.ID
	rec.Sys = t.Sys
	_, walBytes, err := db.log.AppendSized(rec)
	if err != nil {
		return foldResult{}, err
	}
	// The put pins the fold's delta version in its own descent.
	var created bool
	rec.Pin, created = tree.PutPinned(key, record.EncodeRow(next), empty, rec, t.ID)
	if created {
		db.trackChain(rec)
	}
	if err := t.RecordOp(rec); err != nil {
		unpin(rec)
		return foldResult{}, err
	}
	if empty && (!ok || !oldGhost) {
		db.met.Ghost.Created.Add(1) // a live row, or none, became a ghost
	}
	// Per-view maintenance bill: rows folded and WAL volume.
	if c := db.met.Views.Get(tid); c != nil {
		c.FoldRows.Add(1)
		c.WALBytes.Add(int64(walBytes))
	}
	return foldResult{old: old, next: next, existed: ok, oldGhost: oldGhost, newGhost: empty}, nil
}

// acquire acquires res for t honoring the transaction's context and lock
// timeout (BeginTx's TxOptions); both fall back to engine-wide defaults. It
// returns the mode t held on res before. Every user-transaction lock
// acquisition in the engine funnels through here.
func (db *DB) acquire(t *txn.Txn, res lock.Resource, mode lock.Mode) (lock.Mode, error) {
	ctx, timeout := db.lockWait(t)
	return db.lm.Acquire(ctx, &t.Locks, res, mode, timeout)
}

// lockWait returns the context and timeout t's lock waits run under.
func (db *DB) lockWait(t *txn.Txn) (context.Context, time.Duration) {
	ctx := t.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	timeout := t.LockTimeout
	if timeout <= 0 {
		timeout = db.opts.LockTimeout
	}
	return ctx, timeout
}

// lockRes is acquire for a caller that needs only the outcome.
func (db *DB) lockRes(t *txn.Txn, res lock.Resource, mode lock.Mode) error {
	_, err := db.acquire(t, res, mode)
	return err
}

// lockKey acquires a key lock with the engine's timeout and escalation
// policy.
func (db *DB) lockKey(t *txn.Txn, tree id.Tree, key []byte, mode lock.Mode) error {
	return db.lockKeyRes(t, lock.KeyResource(tree, key), mode)
}

// lockKeyRes is lockKey for a caller that already built the key's resource.
func (db *DB) lockKeyRes(t *txn.Txn, res lock.Resource, mode lock.Mode) error {
	if err := db.lockRes(t, res, mode); err != nil {
		return err
	}
	tree := res.Tree
	if th := db.opts.EscalationThreshold; th > 0 && t.Locks.KeyLocks(tree) > th {
		// Escalate to a tree lock covering the key locks, then drop them.
		treeMode := lock.ModeS
		if mode == lock.ModeX || mode == lock.ModeE || mode == lock.ModeU {
			treeMode = lock.ModeX
		}
		if err := db.lockRes(t, lock.TreeResource(tree), treeMode); err != nil {
			return err
		}
		db.lm.ReleaseKeys(&t.Locks, tree)
		db.met.Engine.Escalations.Add(1)
	}
	return nil
}

// lockTree acquires a tree-level lock with the engine's timeout.
func (db *DB) lockTree(t *txn.Txn, tree id.Tree, mode lock.Mode) error {
	return db.lockRes(t, lock.TreeResource(tree), mode)
}

// momentaryS is the lock-based read-committed read's S key lock: it blocks
// on an uncommitted X and then leaves nothing held that was not held before
// (an instant-duration lock). Only read committed releases read locks:
// repeatable read and serializable keep the S lock to commit.
func (db *DB) momentaryS(t *txn.Txn, tree id.Tree, key []byte) error {
	res := lock.KeyResource(tree, key)
	if t.Isolation != txn.ReadCommitted {
		return db.lockRes(t, res, lock.ModeS)
	}
	ctx, timeout := db.lockWait(t)
	return db.lm.Instant(ctx, &t.Locks, res, lock.ModeS, timeout)
}

// waitQuiesced is a test helper: it blocks until no transactions are active.
// Every transaction holds the gate's read lock from begin to finish, so
// taking the gate exclusively waits for exactly those.
func (db *DB) waitQuiesced() {
	db.gate.Lock()
	db.gate.Unlock()
}
