package escrow

import (
	"sync"

	"repro/internal/id"
)

// Ledger addresses pending sets by transaction ID, for callers that hold an
// ID rather than the set itself (the engine's transactions hold theirs
// directly). It is safe for concurrent use by different transactions.
type Ledger struct {
	mu   sync.Mutex
	sets map[id.Txn]*Pending
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
		p = NewPending()
		l.sets[txn] = p
	}
	l.mu.Unlock()
	g, _ := p.Group(cell.Row.Tree, []byte(cell.Row.Key))
	g.Add(cell.Col, d)
}

// Discard drops every pending delta of txn (commit after fold, or abort).
func (l *Ledger) Discard(txn id.Txn) {
	l.mu.Lock()
	delete(l.sets, txn)
	l.mu.Unlock()
}

// Empty reports whether no transaction has a pending set open.
func (l *Ledger) Empty() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sets) == 0
}
