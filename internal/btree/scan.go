package btree

import (
	"bytes"

	"repro/internal/mvcc"
)

// Item is one entry yielded by a scan. Key and Val alias internal storage and
// must not be modified; Clone before retaining. Chain is the entry's version
// chain (nil for most entries); Dead marks a tombstone, which only Entry and
// ScanAll yield.
type Item struct {
	Key   []byte
	Val   []byte
	Ghost bool
	Dead  bool
	Chain *mvcc.Chain
}

// Clone returns an Item with copied Key and Val.
func (it Item) Clone() Item {
	it.Key = append([]byte(nil), it.Key...)
	it.Val = append([]byte(nil), it.Val...)
	return it
}

func (n *node) item(i int) Item {
	e := &n.ents[i]
	return Item{Key: n.keys[i], Val: e.val, Ghost: e.ghost, Dead: e.dead, Chain: e.chain}
}

// Scan visits entries with lo <= key < hi in ascending order. A nil lo means
// the start of the tree; a nil hi means the end. Ghost entries are skipped
// unless includeGhosts is set. fn returns false to stop early. fn must not
// call back into the same tree (the tree latch is held across the scan).
func (t *Tree) Scan(lo, hi []byte, includeGhosts bool, fn func(Item) bool) {
	t.scan(lo, hi, includeGhosts, false, fn)
}

// ScanAll is Scan over the physical entries: ghosts and tombstones included,
// each with its version chain, so a caller resolving rows at a read timestamp
// sees every row that may be visible at it. The inline image and chain of
// each entry are read under one latch hold.
func (t *Tree) ScanAll(lo, hi []byte, fn func(Item) bool) {
	t.scan(lo, hi, true, true, fn)
}

func (t *Tree) scan(lo, hi []byte, ghosts, dead bool, fn func(Item) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *node
	var i int
	if lo == nil {
		n = t.leftmostLeaf()
		i = 0
	} else {
		n = t.findLeaf(lo)
		i, _ = search(n.keys, lo)
	}
	for n != nil {
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return
			}
			if e := &n.ents[i]; (e.dead && !dead) || (e.ghost && !ghosts) {
				continue
			}
			if !fn(n.item(i)) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// ScanReverse visits entries with lo <= key < hi in descending order, with
// the same nil-boundary and ghost conventions as Scan.
func (t *Tree) ScanReverse(lo, hi []byte, includeGhosts bool, fn func(Item) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n *node
	var i int
	if hi == nil {
		n = t.rightmostLeaf()
		i = len(n.keys) - 1
	} else {
		n = t.findLeaf(hi)
		// First index >= hi; we start one before it (hi itself is excluded).
		idx, _ := search(n.keys, hi)
		i = idx - 1
		if i < 0 {
			n = n.prev
			if n != nil {
				i = len(n.keys) - 1
			}
		}
	}
	for n != nil {
		for ; i >= 0; i-- {
			if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
				return
			}
			if e := &n.ents[i]; e.dead || (e.ghost && !includeGhosts) {
				continue
			}
			if !fn(n.item(i)) {
				return
			}
		}
		n = n.prev
		if n != nil {
			i = len(n.keys) - 1
		}
	}
}

// Successor returns a copy of the smallest key strictly greater than key,
// including ghost entries (key-range locking anchors on physical keys, and
// ghosts are physical). ok is false when no such key exists.
func (t *Tree) Successor(key []byte) (succ []byte, ok bool) {
	return t.SuccessorAppend(nil, key)
}

// SuccessorAppend is Successor appending the found key to dst (which may be
// nil), avoiding a separate allocation when the caller is building a larger
// buffer around the key.
func (t *Tree) SuccessorAppend(dst, key []byte) (succ []byte, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.findLeaf(key)
	i, exact := search(n.keys, key)
	if exact {
		i++
	}
	if k := firstLive(n, i); k != nil {
		return append(dst, k...), true
	}
	return dst, false
}

// firstLive returns the first non-tombstone key at or after position i of
// leaf n, following the leaf chain; nil when there is none.
func firstLive(n *node, i int) []byte {
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if !n.ents[i].dead {
				return n.keys[i]
			}
		}
	}
	return nil
}

// Ceiling returns a copy of the smallest key greater than or equal to key,
// including ghosts. ok is false when no such key exists.
func (t *Tree) Ceiling(key []byte) (ceil []byte, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.findLeaf(key)
	i, _ := search(n.keys, key)
	if k := firstLive(n, i); k != nil {
		return append([]byte(nil), k...), true
	}
	return nil, false
}

// First returns a copy of the smallest live entry, or ok=false when empty.
func (t *Tree) First() (Item, bool) { return t.edge(false) }

// Last returns a copy of the largest live entry, or ok=false when empty.
func (t *Tree) Last() (Item, bool) { return t.edge(true) }

func (t *Tree) edge(last bool) (Item, bool) {
	var out Item
	var found bool
	visit := func(it Item) bool {
		out = it.Clone()
		found = true
		return false
	}
	if last {
		t.ScanReverse(nil, nil, false, visit)
	} else {
		t.Scan(nil, nil, false, visit)
	}
	return out, found
}

func (t *Tree) leftmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	return n
}

func (t *Tree) rightmostLeaf() *node {
	n := t.root
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	return n
}

// Items returns copies of every entry in [lo, hi); for tests and snapshots.
func (t *Tree) Items(lo, hi []byte, includeGhosts bool) []Item {
	var out []Item
	t.Scan(lo, hi, includeGhosts, func(it Item) bool {
		out = append(out, it.Clone())
		return true
	})
	return out
}
