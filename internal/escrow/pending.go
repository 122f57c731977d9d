package escrow

import (
	"bytes"
	"slices"

	"repro/internal/id"
	"repro/internal/wal"
)

// Group is one (view tree, group key) entry of a pending set: the signed
// deltas merged per (column, int/float) cell, kept in ascending column order
// with a column's int cell before its float cell — the order a fold logs.
type Group struct {
	Tree   id.Tree
	Key    []byte
	Deltas []wal.ColDelta
}

// Add merges d into the group's cell for col. Int and float parts accumulate
// in separate cells so mixed accumulations stay exact.
func (g *Group) Add(col uint32, d Delta) {
	if d.Int != 0 {
		g.merge(wal.ColDelta{Col: col, Int: d.Int})
	}
	if d.Float != 0 {
		g.merge(wal.ColDelta{Col: col, IsFloat: true, Float: d.Float})
	}
}

func (g *Group) merge(d wal.ColDelta) {
	for i := range g.Deltas {
		c := &g.Deltas[i]
		if c.Col == d.Col && c.IsFloat == d.IsFloat {
			c.Int += d.Int
			c.Float += d.Float
			return
		}
		if c.Col > d.Col || (c.Col == d.Col && c.IsFloat) {
			g.Deltas = slices.Insert(g.Deltas, i, d)
			return
		}
	}
	if g.Deltas == nil {
		// Hidden count, COUNT(*), and one SUM pair: the common view fits.
		g.Deltas = make([]wal.ColDelta, 0, 4)
	}
	g.Deltas = append(g.Deltas, d)
}

// Net returns the group's deltas with the cells that cancelled to zero
// dropped, filtering in place. Folding a cancelled cell would be a no-op that
// still logs — and a group with nothing left must not fold at all (on a
// stacked view it could spuriously create the child row).
func (g *Group) Net() []wal.ColDelta {
	g.Deltas = slices.DeleteFunc(g.Deltas, func(d wal.ColDelta) bool {
		return d.Int == 0 && d.Float == 0
	})
	return g.Deltas
}

// Pending is the coalescing set of pending escrow deltas: one Group per
// (view tree, group key), ordered by tree then key. A write transaction owns
// one for the deltas its statements produce; its commit folds the groups in
// order, merging the cascade contributions for stacked views into the same
// set (a child view's tree ID is always above its source's, so they land
// ahead of the fold position); the deferred applier builds one per round the
// same way. However many statements or cascade paths feed a group, it is one
// entry — the at-most-one-fold-per-(view, group) guarantee of DESIGN.md §10.
//
// A Pending has a single owner and no synchronization: nothing but the
// owning goroutine may touch it.
type Pending struct {
	groups []Group
	// inline backs groups until a third group arrives: a transaction
	// touching one or two groups allocates nothing but the set itself.
	inline [2]Group
}

// NewPending returns an empty set.
func NewPending() *Pending {
	p := &Pending{}
	p.groups = p.inline[:0]
	return p
}

// Group returns the set's entry for (tree, key), inserting an empty one in
// order when absent (created reports that). A created entry keeps key, so the
// caller must not modify it afterwards. The pointer is valid until the next
// Group or Restore call.
func (p *Pending) Group(tree id.Tree, key []byte) (g *Group, created bool) {
	i, found := p.find(tree, key)
	if !found {
		p.groups = slices.Insert(p.groups, i, Group{Tree: tree, Key: key})
	}
	return &p.groups[i], !found
}

// find returns the position of (tree, key) in the set, or the position it
// would be inserted at. It does not keep key.
func (p *Pending) find(tree id.Tree, key []byte) (int, bool) {
	lo, hi := 0, len(p.groups)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m := &p.groups[mid]; m.Tree < tree || (m.Tree == tree && bytes.Compare(m.Key, key) < 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.groups) && p.groups[lo].Tree == tree && bytes.Equal(p.groups[lo].Key, key)
}

// Len reports how many groups the set holds.
func (p *Pending) Len() int { return len(p.groups) }

// At returns the i'th group in (tree, key) order, valid until the next Group
// or Restore call.
func (p *Pending) At(i int) *Group { return &p.groups[i] }

// Snapshot returns a copy of the set's contents for a savepoint.
func (p *Pending) Snapshot() []Group { return cloneGroups(nil, p.groups) }

// Restore replaces the set's contents with a copy of a Snapshot result (nil
// empties the set), leaving snap reusable for a later Restore.
func (p *Pending) Restore(snap []Group) { p.groups = cloneGroups(p.groups[:0], snap) }

// cloneGroups appends copies of src's groups to dst. Keys are immutable and
// shared; delta slices are owned by their group and copied.
func cloneGroups(dst, src []Group) []Group {
	for _, g := range src {
		g.Deltas = slices.Clone(g.Deltas)
		dst = append(dst, g)
	}
	return dst
}
