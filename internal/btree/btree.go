// Package btree implements an in-memory B+-tree over []byte keys with
// ghost-bit-aware entries.
//
// The tree stands in for the paged B-tree indexes of the paper's storage
// engine (see DESIGN.md §2): tables, secondary indexes, and indexed views are
// each one Tree. Leaf entries carry a ghost bit — the pseudo-deleted record
// marker the paper's system transactions toggle — so structural presence and
// logical visibility are decoupled exactly as in the paper.
//
// A leaf entry also carries the row's MVCC version chain, when it has one
// (DESIGN.md §8): a versioned mutation (PutPinned, DeletePinned) hangs a
// chain off the entry in its own descent, and the pruner has ReleaseChain drop it once it is quiescent. A
// row deleted while its chain still holds versions stays in the leaf as a
// tombstone — the paper's ghost discipline applied to versions — that only
// Entry and ScanAll can see; every other method treats it as absent.
//
// Concurrency: every exported method takes the tree latch (an RWMutex), the
// memory-resident analogue of page latching. Transactional isolation is the
// lock manager's job, layered above.
package btree

import (
	"bytes"
	"sync"

	"repro/internal/id"
	"repro/internal/mvcc"
	"repro/internal/wal"
)

// order is the maximum number of keys in a node. 2*order children max.
const order = 64

// minKeys is the minimum number of keys in a non-root node.
const minKeys = order / 2

// Tree is a B+-tree mapping []byte keys to []byte values with a per-entry
// ghost bit. The zero value is not usable; call New.
type Tree struct {
	mu     sync.RWMutex
	root   *node
	height int // number of levels; 1 = root is a leaf
	size   int // live (non-ghost) entries
	ghosts int // ghost entries
}

type node struct {
	leaf     bool
	keys     [][]byte
	ents     []entry // leaf only, parallel to keys
	children []*node // internal only, len(children) == len(keys)+1
	next     *node   // leaf chain
	prev     *node
}

// entry is a leaf entry's payload: the inline (newest, possibly uncommitted)
// image and the version chain covering it. dead marks a tombstone: the row is
// deleted but chain still holds versions some snapshot may need; a dead entry
// always has a chain.
type entry struct {
	val   []byte
	chain *mvcc.Chain
	ghost bool
	dead  bool
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}, height: 1}
}

// Len returns the number of live (non-ghost) entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// GhostCount returns the number of ghost entries.
func (t *Tree) GhostCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ghosts
}

// Height returns the number of levels in the tree.
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// search returns the index of the first key >= k in n.keys, and whether an
// exact match was found.
func search(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], k)
}

func (t *Tree) findLeaf(k []byte) *node {
	n := t.root
	for !n.leaf {
		i, exact := search(n.keys, k)
		if exact {
			i++ // separator keys equal to k route right
		}
		n = n.children[i]
	}
	return n
}

// lookup returns key's live (non-tombstone) entry, or nil.
func (t *Tree) lookup(key []byte) *entry {
	n := t.findLeaf(key)
	if i, exact := search(n.keys, key); exact && !n.ents[i].dead {
		return &n.ents[i]
	}
	return nil
}

// Get returns a copy of the value stored under key. ghost reports the entry's
// ghost bit; ok is false when no entry (live or ghost) exists.
func (t *Tree) Get(key []byte) (val []byte, ghost, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.lookup(key)
	if e == nil {
		return nil, false, false
	}
	return append(make([]byte, 0, len(e.val)), e.val...), e.ghost, true
}

// Has reports whether an entry (live or ghost) exists under key, without
// copying its value.
func (t *Tree) Has(key []byte) (ghost, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e := t.lookup(key)
	if e == nil {
		return false, false
	}
	return e.ghost, true
}

// Entry returns key's physical entry for a reader resolving it at a read
// timestamp — tombstones included — or ok=false when the leaf holds nothing
// under key. The inline image and the chain pointer are read atomically under
// the latch. Val is a copy when the entry has no chain and nil when it has
// one (the chain then supersedes the inline image); Key is the caller's.
func (t *Tree) Entry(key []byte) (it Item, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.findLeaf(key)
	i, exact := search(n.keys, key)
	if !exact {
		return Item{}, false
	}
	it = n.item(i)
	it.Key = key
	if it.Chain == nil {
		it.Val = append([]byte(nil), it.Val...)
	} else {
		it.Val = nil
	}
	return it, true
}

// Put inserts or replaces the entry for key, setting its value and ghost bit.
// It returns true when an entry (live or ghost) already existed. Key and
// value bytes are copied. The entry's version chain, if any, stays: writing
// over a tombstone revives it.
func (t *Tree) Put(key, val []byte, ghost bool) (replaced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.put(key, entry{val: val, ghost: ghost}, nil)
}

// PutPinned is Put for a versioned operation: in the same latch hold and
// descent it first records rec, txn's in-flight operation, on key's version
// chain (see pin.record). created tells the caller to queue the chain for
// the pruner.
func (t *Tree) PutPinned(key, val []byte, ghost bool, rec *wal.Record, txn id.Txn) (ch *mvcc.Chain, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := pin{rec: rec, txn: txn}
	t.put(key, entry{val: val, ghost: ghost}, &p)
	return p.ch, p.created
}

// DeletePinned is Delete for a versioned operation: it records rec, txn's
// in-flight operation, on key's version chain and leaves the entry a
// tombstone carrying the chain, in one latch hold and descent. A key with no
// entry gets a tombstone to hang the chain off.
func (t *Tree) DeletePinned(key []byte, rec *wal.Record, txn id.Txn) (ch *mvcc.Chain, created bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := pin{rec: rec, txn: txn}
	n := t.findLeaf(key)
	i, exact := search(n.keys, key)
	if !exact {
		p.absent()
		t.put(key, entry{chain: p.ch, dead: true}, nil)
		return p.ch, p.created
	}
	e := &n.ents[i]
	p.record(e)
	if !e.dead {
		t.count(e, -1)
		e.val, e.ghost, e.dead = nil, false, true
	}
	return p.ch, p.created
}

func (t *Tree) put(key []byte, e entry, p *pin) (replaced bool) {
	replaced = t.insert(t.root, key, e, p)
	if len(t.root.keys) > order {
		t.splitRoot()
	}
	return replaced
}

// pin is an in-flight operation, rec of txn, that a mutation records on its
// row's version chain before it changes the entry, while the caller's write
// lock (or the structure latch, for escrow folds) still serializes the row.
// The mutation fills in the chain and whether it created it.
type pin struct {
	rec     *wal.Record
	txn     id.Txn
	ch      *mvcc.Chain
	created bool
}

// record pins p on e's chain, first creating the chain — seeded with the
// entry's current image — when the entry has none.
func (p *pin) record(e *entry) {
	if p.created = e.chain == nil; p.created {
		e.chain = mvcc.NewChain(e.val, e.ghost, true)
	}
	p.ch = e.chain
	p.ch.Pin(p.rec, p.txn)
}

// absent pins p on a new chain for a key with no entry.
func (p *pin) absent() {
	p.ch, p.created = mvcc.NewChain(nil, false, false), true
	p.ch.Pin(p.rec, p.txn)
}

// ReleaseChain detaches ch from key's entry if it is quiescent — the inline
// image then says everything the chain did — and physically removes the
// entry if it is a tombstone. It reports whether ch is off the tree (also
// true when the entry no longer carries ch at all).
func (t *Tree) ReleaseChain(key []byte, ch *mvcc.Chain) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.findLeaf(key)
	i, exact := search(n.keys, key)
	if !exact || n.ents[i].chain != ch {
		return true
	}
	if !ch.Quiescent() {
		return false
	}
	n.ents[i].chain = nil
	if n.ents[i].dead {
		t.delete(key)
	}
	return true
}

// Reset overwrites a live entry's value in place and drops its version chain,
// making the stored bytes the row's only image at every timestamp. It refuses
// (returning false) when the entry is missing or has operations in flight.
// Fault injection only: committed history normally leaves through the pruner.
func (t *Tree) Reset(key, val []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.lookup(key)
	if e == nil || (e.chain != nil && e.chain.Pinned()) {
		return false
	}
	e.val = append(e.val[:0], val...)
	e.chain = nil
	return true
}

// count adjusts the live/ghost counters by delta for an entry in state e.
func (t *Tree) count(e *entry, delta int) {
	switch {
	case e.dead:
	case e.ghost:
		t.ghosts += delta
	default:
		t.size += delta
	}
}

// insert descends to the leaf and inserts/replaces, first recording p (when
// non-nil) on the entry's chain at the leaf; it splits full children on the
// way back up. Returns whether an existing (non-tombstone) entry was
// replaced. k and e.val remain caller-owned: they are copied only when a
// fresh entry is created, and a replace recycles the stored key and (capacity
// permitting) the stored value slice, keeping the stored chain. Readers never
// retain aliases into the tree (Get copies out; Scan's Item contract requires
// Clone), so overwriting the backing array is safe.
func (t *Tree) insert(n *node, k []byte, e entry, p *pin) bool {
	if n.leaf {
		i, exact := search(n.keys, k)
		if exact {
			old := &n.ents[i]
			if p != nil {
				p.record(old)
			}
			replaced := !old.dead
			t.count(old, -1)
			old.val = append(old.val[:0], e.val...)
			old.ghost, old.dead = e.ghost, false
			t.count(old, +1)
			return replaced
		}
		if p != nil {
			p.absent()
			e.chain = p.ch
		}
		e.val = append([]byte(nil), e.val...)
		n.keys = insertAt(n.keys, i, append([]byte(nil), k...))
		n.ents = insertAt(n.ents, i, e)
		t.count(&e, +1)
		return false
	}
	i, exact := search(n.keys, k)
	if exact {
		i++
	}
	replaced := t.insert(n.children[i], k, e, p)
	if child := n.children[i]; len(child.keys) > order {
		sep, right := splitNode(child)
		n.keys = insertAt(n.keys, i, sep)
		n.children = insertAt(n.children, i+1, right)
	}
	return replaced
}

func (t *Tree) splitRoot() {
	sep, right := splitNode(t.root)
	t.root = &node{
		keys:     [][]byte{sep},
		children: []*node{t.root, right},
	}
	t.height++
}

// splitNode splits an over-full node in half, returning the separator key to
// push up and the new right sibling.
func splitNode(n *node) (sep []byte, right *node) {
	mid := len(n.keys) / 2
	right = &node{leaf: n.leaf}
	if n.leaf {
		right.keys = append(right.keys, n.keys[mid:]...)
		right.ents = append(right.ents, n.ents[mid:]...)
		clear(n.ents[mid:])
		n.keys = n.keys[:mid:mid]
		n.ents = n.ents[:mid:mid]
		right.next = n.next
		if right.next != nil {
			right.next.prev = right
		}
		right.prev = n
		n.next = right
		sep = right.keys[0]
		return sep, right
	}
	sep = n.keys[mid]
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// SetGhost sets the ghost bit of an existing entry, returning false when the
// key is absent.
func (t *Tree) SetGhost(key []byte, ghost bool) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.lookup(key)
	if e == nil {
		return false
	}
	t.count(e, -1)
	e.ghost = ghost
	t.count(e, +1)
	return true
}

// Delete removes the entry (live or ghost) for key, returning whether it
// existed. An entry whose version chain is still attached stays behind as a
// tombstone until ReleaseChain drops the chain.
func (t *Tree) Delete(key []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.lookup(key)
	if e == nil {
		return false
	}
	if e.chain != nil {
		t.count(e, -1)
		e.val, e.ghost, e.dead = nil, false, true
		return true
	}
	t.delete(key)
	return true
}

// delete physically removes key's entry.
func (t *Tree) delete(key []byte) {
	t.remove(t.root, key)
	if !t.root.leaf && len(t.root.keys) == 0 {
		t.root = t.root.children[0]
		t.height--
	}
}

func (t *Tree) remove(n *node, k []byte) bool {
	if n.leaf {
		i, exact := search(n.keys, k)
		if !exact {
			return false
		}
		t.count(&n.ents[i], -1)
		n.keys = removeAt(n.keys, i)
		n.ents = removeAt(n.ents, i)
		return true
	}
	i, exact := search(n.keys, k)
	if exact {
		i++
	}
	deleted := t.remove(n.children[i], k)
	if deleted && len(n.children[i].keys) < minKeys {
		t.rebalance(n, i)
	}
	return deleted
}

// rebalance fixes an underflowing child n.children[i] by borrowing from a
// sibling or merging with one.
func (t *Tree) rebalance(parent *node, i int) {
	child := parent.children[i]
	// Try borrowing from the left sibling.
	if i > 0 {
		left := parent.children[i-1]
		if len(left.keys) > minKeys {
			borrowFromLeft(parent, i, left, child)
			return
		}
	}
	// Try borrowing from the right sibling.
	if i < len(parent.children)-1 {
		right := parent.children[i+1]
		if len(right.keys) > minKeys {
			borrowFromRight(parent, i, child, right)
			return
		}
	}
	// Merge with a sibling.
	if i > 0 {
		mergeChildren(parent, i-1)
	} else {
		mergeChildren(parent, i)
	}
}

func borrowFromLeft(parent *node, i int, left, child *node) {
	last := len(left.keys) - 1
	if child.leaf {
		child.keys = insertAt(child.keys, 0, left.keys[last])
		child.ents = insertAt(child.ents, 0, left.ents[last])
		left.keys = removeAt(left.keys, last)
		left.ents = removeAt(left.ents, last)
		parent.keys[i-1] = child.keys[0]
		return
	}
	child.keys = insertAt(child.keys, 0, parent.keys[i-1])
	parent.keys[i-1] = left.keys[last]
	child.children = insertAt(child.children, 0, left.children[last+1])
	left.keys = left.keys[:last]
	left.children = left.children[:last+1]
}

func borrowFromRight(parent *node, i int, child, right *node) {
	if child.leaf {
		child.keys = append(child.keys, right.keys[0])
		child.ents = append(child.ents, right.ents[0])
		right.keys = removeAt(right.keys, 0)
		right.ents = removeAt(right.ents, 0)
		parent.keys[i] = right.keys[0]
		return
	}
	child.keys = append(child.keys, parent.keys[i])
	parent.keys[i] = right.keys[0]
	child.children = append(child.children, right.children[0])
	right.keys = removeAt(right.keys, 0)
	right.children = removeAt(right.children, 0)
}

// mergeChildren merges parent.children[i+1] into parent.children[i].
func mergeChildren(parent *node, i int) {
	left, right := parent.children[i], parent.children[i+1]
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.ents = append(left.ents, right.ents...)
		left.next = right.next
		if left.next != nil {
			left.next.prev = left
		}
	} else {
		left.keys = append(left.keys, parent.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = removeAt(parent.keys, i)
	parent.children = removeAt(parent.children, i+1)
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeAt deletes s[i], zeroing the vacated tail slot so it pins no memory.
func removeAt[T any](s []T, i int) []T {
	var zero T
	copy(s[i:], s[i+1:])
	s[len(s)-1] = zero
	return s[:len(s)-1]
}
