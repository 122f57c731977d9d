// Package applier holds the data plane of the deferred view-maintenance tier
// (DESIGN.md §9): the delta batches committers publish off the commit path and
// the coalescer the background applier folds them through.
//
// A transaction touching a deferred view accumulates its escrow-style cell
// deltas in its pending set; at commit, instead of folding them into the
// view rows inline, the engine packages them as a Batch stamped with the
// commit timestamp and hands it to the applier queue. The applier owns a
// Coalescer exclusively (single goroutine, no locks): batches merge per
// (view, group) so each group is folded into its B-tree row exactly once per
// apply round no matter how many commits piled deltas onto it — the
// shared-delta batching win that makes the deferred tier cheaper than the sum
// of its transactions.
package applier

import (
	"sort"

	"repro/internal/id"
	"repro/internal/wal"
)

// MaxGroupSpans caps how many originating spans a coalesced group accumulates
// — enough to link a fold back to its recent contributors without letting a
// hot group's span list grow with the coalescing depth.
const MaxGroupSpans = 8

// GroupDelta is the net escrow delta a set of commits contributed to one
// group row of one deferred view.
type GroupDelta struct {
	Tree   id.Tree
	Key    string // encoded group key
	Deltas []wal.ColDelta
	// Spans are the causal span IDs of the originating commits (deduped,
	// capped at MaxGroupSpans), threaded across the async boundary so applier
	// folds and watermark advances can name their causes.
	Spans []uint64
	// OldestWallNs is the earliest contributing publish's wall clock — the
	// group's commit-to-visible clock starts here.
	OldestWallNs int64
}

// Batch is one committed transaction's deferred-view deltas, published to the
// applier queue after the commit timestamp is allocated and its versions are
// stamped, but before the oracle watermark may advance over it — so a drained
// queue observed after reading the watermark covers every commit at or below
// it.
type Batch struct {
	// TS is the publishing transaction's commit timestamp.
	TS uint64
	// WallNs is the publish wall-clock (UnixNano), the staleness clock.
	WallNs int64
	// Span is the publishing transaction's causal span ID (zero when the
	// flight recorder is off), carried across the async boundary so the
	// applier can stamp downstream events with their originating commits.
	Span uint64
	// Groups are the commit's per-(view, group) net deltas.
	Groups []GroupDelta
}

// Barrier is a catalog-ordered control message: a view refresh (or create
// backfill, or drop) recomputed the view from its base tables as of commit
// timestamp TS, so every delta pending for the view is already incorporated
// and must be discarded, and the view's watermark jumps to TS. Publication
// order against Batch messages is the correctness argument: the refresh holds
// the base tables' S locks through its commit, so any commit whose deltas are
// NOT in the recompute allocates a later timestamp and publishes after the
// barrier.
type Barrier struct {
	Tree id.Tree
	TS   uint64
	// Drop marks a dropped view: pending deltas are discarded and the
	// watermark entry is removed rather than advanced.
	Drop bool
}

// Msg is one applier-queue entry: exactly one of Batch or Barrier is set.
type Msg struct {
	Batch   *Batch
	Barrier *Barrier
}

// groupID keys the coalescer's pending table.
type groupID struct {
	tree id.Tree
	key  string
}

// cellKey distinguishes the integer and float accumulator of one column.
type cellKey struct {
	col     uint32
	isFloat bool
}

// pendingGroup is one group's accumulated deltas. Column order of first
// arrival is preserved so folds stay deterministic.
type pendingGroup struct {
	cols  []wal.ColDelta
	index map[cellKey]int
	// spans are the contributing commits' causal spans (deduped, capped at
	// MaxGroupSpans); oldestWallNs the earliest contributing publish.
	spans        []uint64
	oldestWallNs int64
}

// Coalescer merges published batches per (view, group) with exactly-one-fold
// semantics. It is owned by the single applier goroutine and is NOT safe for
// concurrent use — publication happens through the queue, never directly.
type Coalescer struct {
	pending map[groupID]*pendingGroup
}

// NewCoalescer returns an empty coalescer.
func NewCoalescer() *Coalescer {
	return &Coalescer{pending: make(map[groupID]*pendingGroup)}
}

// Add merges a batch's groups into the pending table, threading the batch's
// causal span and publish clock into each group it feeds. It returns how many
// cell deltas arrived and how many of them coalesced into an already-pending
// accumulator (the folds saved versus immediate maintenance).
func (c *Coalescer) Add(b *Batch) (in, coalesced int) {
	for i := range b.Groups {
		g := b.Groups[i]
		if g.OldestWallNs == 0 {
			g.OldestWallNs = b.WallNs
		}
		if b.Span != 0 && len(g.Spans) == 0 {
			g.Spans = []uint64{b.Span}
		}
		in += len(g.Deltas)
		coalesced += c.addGroup(g)
	}
	return in, coalesced
}

// AddGroups re-queues previously taken groups (a failed apply round); their
// spans and publish clocks ride along so causality survives the retry.
func (c *Coalescer) AddGroups(groups []GroupDelta) {
	for _, g := range groups {
		c.addGroup(g)
	}
}

func (c *Coalescer) addGroup(g GroupDelta) (coalesced int) {
	gid := groupID{tree: g.Tree, key: g.Key}
	pg := c.pending[gid]
	if pg == nil {
		pg = &pendingGroup{index: make(map[cellKey]int, len(g.Deltas))}
		c.pending[gid] = pg
	} else {
		coalesced = len(g.Deltas)
	}
	if g.OldestWallNs != 0 && (pg.oldestWallNs == 0 || g.OldestWallNs < pg.oldestWallNs) {
		pg.oldestWallNs = g.OldestWallNs
	}
	pg.spans = MergeSpans(pg.spans, g.Spans)
	for _, d := range g.Deltas {
		ck := cellKey{col: d.Col, isFloat: d.IsFloat}
		if i, ok := pg.index[ck]; ok {
			if d.IsFloat {
				pg.cols[i].Float += d.Float
			} else {
				pg.cols[i].Int += d.Int
			}
			continue
		}
		pg.index[ck] = len(pg.cols)
		pg.cols = append(pg.cols, d)
	}
	return coalesced
}

// DropTree discards every pending group of one view (a Barrier: the deltas
// are already incorporated in a recompute, or the view is gone). It returns
// how many groups were dropped.
func (c *Coalescer) DropTree(tree id.Tree) int {
	dropped := 0
	for gid := range c.pending {
		if gid.tree == tree {
			delete(c.pending, gid)
			dropped++
		}
	}
	return dropped
}

// MergeSpans appends add's spans to have, deduplicating and respecting the
// MaxGroupSpans cap (oldest contributors win: they are the ones the staleness
// clock points at).
func MergeSpans(have, add []uint64) []uint64 {
	for _, s := range add {
		if len(have) >= MaxGroupSpans {
			break
		}
		if s == 0 {
			continue
		}
		dup := false
		for _, h := range have {
			if h == s {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, s)
		}
	}
	return have
}

// Len returns the number of pending (view, group) accumulators.
func (c *Coalescer) Len() int { return len(c.pending) }

// OldestPendingWallNs returns the earliest publish wall clock among every
// pending group of tree, or zero when none is pending — the per-view
// staleness clock the applier exports between rounds.
func (c *Coalescer) OldestPendingWallNs(tree id.Tree) int64 {
	var oldest int64
	for gid, pg := range c.pending {
		if gid.tree != tree || pg.oldestWallNs == 0 {
			continue
		}
		if oldest == 0 || pg.oldestWallNs < oldest {
			oldest = pg.oldestWallNs
		}
	}
	return oldest
}

// Take removes and returns every pending group, sorted by (tree, key) so the
// applier folds in a deterministic order. A failed round hands them back via
// AddGroups.
func (c *Coalescer) Take() []GroupDelta {
	if len(c.pending) == 0 {
		return nil
	}
	out := make([]GroupDelta, 0, len(c.pending))
	for gid, pg := range c.pending {
		out = append(out, GroupDelta{
			Tree: gid.tree, Key: gid.key, Deltas: pg.cols,
			Spans: pg.spans, OldestWallNs: pg.oldestWallNs,
		})
	}
	c.pending = make(map[groupID]*pendingGroup)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tree != out[j].Tree {
			return out[i].Tree < out[j].Tree
		}
		return out[i].Key < out[j].Key
	})
	return out
}
