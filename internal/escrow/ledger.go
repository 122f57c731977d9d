package escrow

import (
	"slices"
	"sync"

	"repro/internal/id"
)

// Ledger addresses pending sets by transaction ID, for callers that hold an
// ID rather than the set itself (the engine's transactions hold theirs
// directly). It is safe for concurrent use by different transactions.
type Ledger struct {
	mu   sync.Mutex
	sets map[id.Txn]*Pending
	// idle is the last discarded set, emptied, for the next transaction: a
	// caller cycling through short transactions allocates no set for each.
	idle *Pending
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{sets: make(map[id.Txn]*Pending)} }

// Add accumulates a pending delta for txn against cell.
func (l *Ledger) Add(txn id.Txn, cell CellID, d Delta) {
	if d.IsZero() {
		return
	}
	l.mu.Lock()
	p := l.sets[txn]
	if p == nil {
		if p, l.idle = l.idle, nil; p == nil {
			p = NewPending()
		}
		l.sets[txn] = p
	}
	l.mu.Unlock()
	// Look the group up through a key the lookup does not keep, so only a
	// group's first delta pays for a copy of the key.
	i, found := p.find(cell.Row.Tree, []byte(cell.Row.Key))
	if !found {
		p.groups = slices.Insert(p.groups, i, Group{Tree: cell.Row.Tree, Key: []byte(cell.Row.Key)})
	}
	p.groups[i].Add(cell.Col, d)
}

// Discard drops every pending delta of txn (commit after fold, or abort).
func (l *Ledger) Discard(txn id.Txn) {
	l.mu.Lock()
	if p := l.sets[txn]; p != nil {
		delete(l.sets, txn)
		p.Restore(nil)
		l.idle = p
	}
	l.mu.Unlock()
}

// Empty reports whether no transaction has a pending set open.
func (l *Ledger) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sets) == 0
}
