package metrics

import (
	"sync"
	"sync/atomic"

	"repro/internal/id"
)

// ViewCost accumulates the maintenance bill for one indexed view: how many
// delta rows the commit path folded into it, how long the folds took (each
// fold phase is timed whole and split evenly over the rows it folded), and
// how many WAL bytes its maintenance generated. All fields are atomic so
// the fold path never takes a lock to account.
type ViewCost struct {
	FoldRows atomic.Int64
	FoldNs   atomic.Int64
	WALBytes atomic.Int64
}

// ViewCosts is a copy-on-write map from tree ID to its cost accumulator.
// Cardinality is bounded by the catalog (one entry per view/tree), so the
// map never needs eviction. Lookups on the hot path are a single atomic
// pointer load + map read; the mutex is taken only the first time a tree is
// seen, to publish a copied map.
type ViewCosts struct {
	mu sync.Mutex
	m  atomic.Pointer[map[id.Tree]*ViewCost]
}

// Get returns the accumulator for tree, creating it on first use. Nil-safe:
// a nil receiver returns nil (callers must nil-check before accumulating).
func (vc *ViewCosts) Get(tree id.Tree) *ViewCost {
	if vc == nil {
		return nil
	}
	if mp := vc.m.Load(); mp != nil {
		if c, ok := (*mp)[tree]; ok {
			return c
		}
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	old := vc.m.Load()
	if old != nil {
		if c, ok := (*old)[tree]; ok {
			return c
		}
	}
	next := make(map[id.Tree]*ViewCost, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	c := &ViewCost{}
	next[tree] = c
	vc.m.Store(&next)
	return c
}

// Each calls fn for every tracked tree. Iteration order is unspecified.
// Nil-safe.
func (vc *ViewCosts) Each(fn func(tree id.Tree, c *ViewCost)) {
	if vc == nil {
		return
	}
	mp := vc.m.Load()
	if mp == nil {
		return
	}
	for k, v := range *mp {
		fn(k, v)
	}
}
