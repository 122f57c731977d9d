package btree

import (
	"bytes"
	"fmt"
)

// CheckInvariants walks the whole tree and returns an error describing the
// first structural violation found. It is exported for tests and for the
// engine's consistency checker; it takes the tree latch.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	live, ghosts := 0, 0
	leaves := 0
	var prevKey []byte
	var firstLeaf *node
	err := t.check(t.root, t.height, nil, nil, &live, &ghosts, &leaves, &prevKey, &firstLeaf)
	if err != nil {
		return err
	}
	if live != t.size {
		return fmt.Errorf("btree: size counter %d, counted %d", t.size, live)
	}
	if ghosts != t.ghosts {
		return fmt.Errorf("btree: ghost counter %d, counted %d", t.ghosts, ghosts)
	}
	// Leaf chain must visit exactly the leaves, in order.
	n := firstLeaf
	chained := 0
	var last *node
	for n != nil {
		chained++
		if n.prev != last {
			return fmt.Errorf("btree: broken prev pointer at leaf %d", chained)
		}
		last = n
		n = n.next
	}
	if chained != leaves {
		return fmt.Errorf("btree: leaf chain has %d leaves, tree has %d", chained, leaves)
	}
	return nil
}

func (t *Tree) check(n *node, depth int, lo, hi []byte, live, ghosts, leaves *int, prevKey *[]byte, firstLeaf **node) error {
	if n != t.root && len(n.keys) < minKeys {
		return fmt.Errorf("btree: underfull node (%d keys)", len(n.keys))
	}
	if len(n.keys) > order {
		return fmt.Errorf("btree: overfull node (%d keys)", len(n.keys))
	}
	for i := 1; i < len(n.keys); i++ {
		if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
			return fmt.Errorf("btree: keys out of order in node")
		}
	}
	for _, k := range n.keys {
		if lo != nil && bytes.Compare(k, lo) < 0 {
			return fmt.Errorf("btree: key below subtree lower bound")
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return fmt.Errorf("btree: key at/above subtree upper bound")
		}
	}
	if n.leaf {
		if depth != 1 {
			return fmt.Errorf("btree: leaf at depth %d, want 1", depth)
		}
		if len(n.ents) != len(n.keys) {
			return fmt.Errorf("btree: leaf parallel slices misaligned")
		}
		*leaves++
		if *firstLeaf == nil {
			*firstLeaf = n
		}
		for i := range n.keys {
			if *prevKey != nil && bytes.Compare(*prevKey, n.keys[i]) >= 0 {
				return fmt.Errorf("btree: global key order violated across leaves")
			}
			*prevKey = n.keys[i]
			switch e := &n.ents[i]; {
			case e.dead && e.chain == nil:
				return fmt.Errorf("btree: tombstone without a version chain")
			case e.dead:
			case e.ghost:
				*ghosts++
			default:
				*live++
			}
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: internal node has %d children for %d keys", len(n.children), len(n.keys))
	}
	for i, c := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = n.keys[i]
		}
		if err := t.check(c, depth-1, clo, chi, live, ghosts, leaves, prevKey, firstLeaf); err != nil {
			return err
		}
	}
	return nil
}
