package escrow

import (
	"bytes"
	"cmp"
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
// (view tree, group key). A write transaction owns one for the deltas its
// statements produce; its commit sorts the groups by tree then key and folds
// them in that order, merging the cascade contributions for stacked views into
// the same set (a child view's tree ID is always above its source's, so they
// sort ahead of the fold position); the deferred applier builds one per round
// the same way. However many statements or cascade paths feed a group, it is
// one entry — the at-most-one-fold-per-(view, group) guarantee of DESIGN.md
// §10.
//
// The groups are a sorted run followed by the arrivals since: a group that
// arrives in order extends the run (an applier round's groups all do), Sort
// folds the arrivals into it. The run is binary-searched; the arrivals are
// searched linearly while they are few (a transfer touches two groups) and
// through an index once they are not (a bulk load under a high-cardinality
// view opens a group per row), so a group costs the same however many the
// set already holds.
//
// A Pending has a single owner and no synchronization: nothing but the
// owning goroutine may touch it.
type Pending struct {
	groups []Group
	// sorted is the length of the sorted run at the head of groups.
	sorted int
	// index maps an arrival to its position once there are more than
	// linearMax of them; nil otherwise.
	index map[groupID]int
	// inline backs groups until a third group arrives: a transaction
	// touching one or two groups allocates nothing but the set itself.
	inline [2]Group
}

// linearMax is the most arrivals searched linearly.
const linearMax = 16

type groupID struct {
	tree id.Tree
	key  string
}

// NewPending returns an empty set.
func NewPending() *Pending {
	p := &Pending{}
	p.groups = p.inline[:0]
	return p
}

// compare orders g against (tree, key): by tree, then by key.
func (g *Group) compare(tree id.Tree, key []byte) int {
	if g.Tree != tree {
		return cmp.Compare(g.Tree, tree)
	}
	return bytes.Compare(g.Key, key)
}

// Group returns the set's entry for (tree, key), appending an empty one when
// absent (created reports that). A created entry keeps key, so the caller
// must not modify it afterwards. The pointer is valid until the next Group,
// Sort or Restore call.
func (p *Pending) Group(tree id.Tree, key []byte) (g *Group, created bool) {
	i := p.find(tree, key)
	if created = i < 0; created {
		i = len(p.groups)
		switch {
		case p.sorted == i && (i == 0 || p.groups[i-1].compare(tree, key) < 0):
			p.sorted++ // arrived in order: the run grows
		case p.index != nil:
			p.index[groupID{tree, string(key)}] = i
		}
		p.groups = append(p.groups, Group{Tree: tree, Key: key})
	}
	return &p.groups[i], created
}

// find returns the position of (tree, key) in the set, or -1. It does not
// keep key.
func (p *Pending) find(tree id.Tree, key []byte) int {
	lo, hi := 0, p.sorted
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.groups[mid].compare(tree, key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < p.sorted && p.groups[lo].compare(tree, key) == 0 {
		return lo
	}
	if len(p.groups)-p.sorted <= linearMax {
		for i := p.sorted; i < len(p.groups); i++ {
			if p.groups[i].compare(tree, key) == 0 {
				return i
			}
		}
		return -1
	}
	if p.index == nil {
		p.index = make(map[groupID]int, 4*linearMax)
		for i := p.sorted; i < len(p.groups); i++ {
			p.index[groupID{p.groups[i].Tree, string(p.groups[i].Key)}] = i
		}
	}
	if i, ok := p.index[groupID{tree, string(key)}]; ok {
		return i
	}
	return -1
}

// Sort puts the groups from position from on in (tree, key) order — the fold
// order — which makes the whole set one sorted run. The groups before from
// must already be in order and below every later one: a fold walk calls Sort
// before it starts and again as it crosses into each next tree, which slots
// the cascade contributions that arrived meanwhile (all for higher trees)
// into the groups still to come. It costs nothing when every group arrived in
// order.
func (p *Pending) Sort(from int) {
	if p.sorted == len(p.groups) {
		return
	}
	slices.SortFunc(p.groups[from:], func(a, b Group) int { return a.compare(b.Tree, b.Key) })
	p.sorted, p.index = len(p.groups), nil
}

// Len reports how many groups the set holds.
func (p *Pending) Len() int { return len(p.groups) }

// At returns the i'th group — in (tree, key) order after Sort — valid until
// the next Group, Sort or Restore call.
func (p *Pending) At(i int) *Group { return &p.groups[i] }

// Snapshot returns a copy of the set's contents for a savepoint.
func (p *Pending) Snapshot() []Group { return cloneGroups(nil, p.groups) }

// Restore replaces the set's contents with a copy of a Snapshot result (nil
// empties the set), leaving snap reusable for a later Restore.
func (p *Pending) Restore(snap []Group) {
	p.groups = cloneGroups(p.groups[:0], snap)
	p.sorted, p.index = 0, nil
}

// cloneGroups appends copies of src's groups to dst. Keys are immutable and
// shared; delta slices are owned by their group and copied.
func cloneGroups(dst, src []Group) []Group {
	for _, g := range src {
		g.Deltas = slices.Clone(g.Deltas)
		dst = append(dst, g)
	}
	return dst
}
