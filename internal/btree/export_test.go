package btree

import (
	"repro/internal/id"
	"repro/internal/mvcc"
	"repro/internal/wal"
)

// Pin records rec, txn's in-flight operation, on key's version chain without
// mutating the entry — a state the engine never leaves visible, which the
// tests stage to check what each method makes of a pinned entry.
func (t *Tree) Pin(key []byte, rec *wal.Record, txn id.Txn) (*mvcc.Chain, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := pin{rec: rec, txn: txn}
	n := t.findLeaf(key)
	if i, exact := search(n.keys, key); exact {
		p.record(&n.ents[i])
	} else {
		p.absent()
		t.put(key, entry{chain: p.ch, dead: true}, nil)
	}
	return p.ch, p.created
}
