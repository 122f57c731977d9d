// Package txn implements transaction bookkeeping: identity, state, isolation
// level, the per-transaction chain of logged operations that drives rollback,
// and savepoints. System transactions — the paper's nested top-level actions
// used for ghost creation and cleanup — are ordinary transactions flagged
// Sys: they commit independently of the user transaction that spawned them
// and hold their (short) locks only until their own commit.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/wal"
)

// State is a transaction's lifecycle state.
type State uint8

const (
	// StateActive means the transaction may still perform work.
	StateActive State = iota + 1
	// StateCommitted means the commit record is written.
	StateCommitted
	// StateAborted means rollback completed.
	StateAborted
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Level is the isolation level of a transaction.
type Level uint8

const (
	// ReadCommitted releases S locks after each read; view readers see
	// committed aggregate values without blocking on escrow writers.
	ReadCommitted Level = iota + 1
	// RepeatableRead holds S locks to commit.
	RepeatableRead
	// Serializable additionally takes range locks on scans, so view readers
	// conflict with escrow writers (the trade-off of DESIGN.md §5).
	Serializable
	// Snapshot reads a transaction-consistent multi-version snapshot pinned
	// at Begin: readers resolve visibility by commit-timestamp comparison
	// against in-memory version chains, with zero lock-manager traffic and
	// zero blocking of concurrent escrow writers (DESIGN.md §8). Writes (in
	// non-read-only snapshot transactions) still take ordinary write locks;
	// the engine does not detect write skew.
	Snapshot
)

// String names the level.
func (l Level) String() string {
	switch l {
	case ReadCommitted:
		return "read-committed"
	case RepeatableRead:
		return "repeatable-read"
	case Serializable:
		return "serializable"
	case Snapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// ErrNotActive reports an operation on a finished transaction.
var ErrNotActive = errors.New("txn: transaction not active")

// Txn is one transaction's bookkeeping.
type Txn struct {
	ID        id.Txn
	Sys       bool
	Isolation Level

	// Ctx, when non-nil, cancels the transaction's in-flight lock waits
	// (set by the engine's BeginTx). LockTimeout, when positive, overrides
	// the engine-wide lock wait timeout for this transaction. Both are set
	// once before the transaction runs and read-only after.
	Ctx         context.Context
	LockTimeout time.Duration

	// Started is the engine clock's reading (metrics.Clock) when the
	// transaction began, for tx-lifetime tracing.
	Started int64

	// Locks is the transaction's lock list: the lock manager links every
	// grant into it and releases by walking it.
	Locks lock.Owner

	mu     sync.Mutex
	state  State
	ops    []*wal.Record  // logged operations, in LSN order, for rollback
	opsBuf [4]*wal.Record // inline first ops, so short transactions never grow
}

// State returns the current lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Active reports whether the transaction may perform work.
func (t *Txn) Active() bool { return t.State() == StateActive }

// RecordOp appends a logged operation to the undo chain.
func (t *Txn) RecordOp(rec *wal.Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrNotActive, t.ID, t.state)
	}
	if t.ops == nil {
		t.ops = t.opsBuf[:0]
	}
	t.ops = append(t.ops, rec)
	return nil
}

// Ops returns the undo chain in LSN order without copying it. Only the
// goroutine running t may call it — the one that records t's operations —
// and the slice is valid until its next RecordOp or the end of t.
func (t *Txn) Ops() []*wal.Record { return t.ops }

// Savepoint marks a rollback point: the current length of the undo chain.
type Savepoint int

// Savepoint returns a marker for partial rollback.
func (t *Txn) Savepoint() Savepoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Savepoint(len(t.ops))
}

// OpsSince returns the operations recorded after sp, newest first (the order
// rollback applies their inverses), and truncates the chain back to sp.
func (t *Txn) OpsSince(sp Savepoint) []*wal.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(sp) < 0 || int(sp) > len(t.ops) {
		return nil
	}
	tail := t.ops[sp:]
	out := make([]*wal.Record, 0, len(tail))
	for i := len(tail) - 1; i >= 0; i-- {
		out = append(out, tail[i])
	}
	t.ops = t.ops[:sp]
	return out
}

// markFinished transitions to a terminal state.
func (t *Txn) markFinished(s State) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateActive {
		return fmt.Errorf("%w: %s is %s", ErrNotActive, t.ID, t.state)
	}
	t.state = s
	t.ops = nil
	t.opsBuf = [4]*wal.Record{} // release record references for GC
	return nil
}

// Manager allocates transaction IDs. It keeps no registry of the active
// transactions: a transaction is its owner's, and beginning one is an atomic
// ID plus field initialisation.
type Manager struct {
	nextID atomic.Uint64
}

// NewManager returns a manager whose first transaction gets ID firstID.
func NewManager(firstID id.Txn) *Manager {
	m := &Manager{}
	if firstID == 0 {
		firstID = 1
	}
	m.nextID.Store(uint64(firstID) - 1)
	return m
}

// Begin starts a transaction in a Txn of its own.
func (m *Manager) Begin(sys bool, level Level) *Txn {
	t := new(Txn)
	m.Start(t, sys, level)
	return t
}

// Start begins a transaction in t, memory the caller owns (the engine embeds
// the Txn in its transaction handle, so a transaction is one allocation). t
// must be a zero Txn.
func (m *Manager) Start(t *Txn, sys bool, level Level) {
	t.ID = id.Txn(m.nextID.Add(1))
	t.Sys = sys
	t.Isolation = level
	t.state = StateActive
	t.Locks.Txn = t.ID
}

// Commit marks t committed.
func (m *Manager) Commit(t *Txn) error { return t.markFinished(StateCommitted) }

// Abort marks t aborted.
func (m *Manager) Abort(t *Txn) error { return t.markFinished(StateAborted) }

// NextID returns the ID the next transaction would receive; checkpoints
// persist it so recovered databases keep allocating above it.
func (m *Manager) NextID() id.Txn { return id.Txn(m.nextID.Load() + 1) }

// ObserveID raises the ID allocator so future transactions get IDs above
// observed; recovery calls this with the highest ID found in the log.
func (m *Manager) ObserveID(observed id.Txn) {
	for {
		cur := m.nextID.Load()
		if cur >= uint64(observed) {
			return
		}
		if m.nextID.CompareAndSwap(cur, uint64(observed)) {
			return
		}
	}
}
