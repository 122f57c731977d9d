package metrics

import (
	"sync"
	"sync/atomic"

	"repro/internal/id"
)

// View is one indexed view's record: its maintenance bill, its freshness and
// its scrub coverage. All fields are atomic, so the paths that account to it
// never take a lock.
type View struct {
	// FoldRows counts the delta rows folded into the view; FoldNs the time
	// those folds took (each fold phase is timed whole and split evenly over
	// the rows it folded); WALBytes the log volume its maintenance wrote.
	FoldRows atomic.Int64
	FoldNs   atomic.Int64
	WALBytes atomic.Int64
	// CommitToVisible is the commit-to-visible latency: for immediately
	// maintained views the commit path itself, for deferred views the wall
	// time from the originating commit to the watermark advance that made it
	// readable.
	CommitToVisible Histogram
	// Passes counts the scrubber's completed verification passes over the
	// whole view; RowsVerified the rows read verifying it; Divergences the
	// divergences found in it.
	Passes       atomic.Int64
	RowsVerified atomic.Int64
	Divergences  atomic.Int64
	// CoverageTS is the scrub coverage watermark: every group of the view has
	// been verified at a snapshot timestamp >= this (the first slice's
	// timestamp of the last completed pass). Zero until a pass completes.
	CoverageTS atomic.Uint64
	// LastPassUnixNs is the wall clock at which the last pass completed.
	LastPassUnixNs atomic.Int64
}

// Views maps each view's tree to its record. The map is copied on write:
// Sync replaces it when the catalog's views change, and a lookup is one
// atomic pointer load and a map read.
type Views struct {
	mu sync.Mutex
	m  atomic.Pointer[map[id.Tree]*View]
}

// Get returns the record of the view stored in tree, or nil when tree holds
// no view (a base table, an index, or a dropped view). It never allocates.
// Nil-safe.
func (vs *Views) Get(tree id.Tree) *View {
	if vs == nil {
		return nil
	}
	if mp := vs.m.Load(); mp != nil {
		return (*mp)[tree]
	}
	return nil
}

// Sync makes the records match the catalog's views: a view in trees keeps
// its record or gets a new one, and the record of a view not in trees is
// removed, so a dropped view's series stop being exported.
func (vs *Views) Sync(trees []id.Tree) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	var old map[id.Tree]*View
	if mp := vs.m.Load(); mp != nil {
		old = *mp
	}
	next := make(map[id.Tree]*View, len(trees))
	for _, t := range trees {
		if next[t] = old[t]; next[t] == nil {
			next[t] = &View{}
		}
	}
	vs.m.Store(&next)
}

// AppendTo adds the view's entries to the snapshot's three per-view
// listings: the maintenance-cost table, the freshness section and the scrub
// coverage.
func (v *View) AppendTo(s *Snapshot, tree id.Tree, name, strategy string, stalenessNs int64) {
	s.Hotspots.Views = append(s.Hotspots.Views, ViewCostSnapshot{
		Tree:       uint32(tree),
		View:       name,
		RowsFolded: v.FoldRows.Load(),
		FoldNs:     v.FoldNs.Load(),
		WALBytes:   v.WALBytes.Load(),
	})
	s.Freshness.Views = append(s.Freshness.Views, ViewFreshnessSnapshot{
		Tree:            uint32(tree),
		View:            name,
		Strategy:        strategy,
		StalenessNs:     stalenessNs,
		CommitToVisible: v.CommitToVisible.Snap(),
	})
	s.Scrub.Views = append(s.Scrub.Views, ViewScrubSnapshot{
		Tree:           uint32(tree),
		View:           name,
		Passes:         v.Passes.Load(),
		RowsVerified:   v.RowsVerified.Load(),
		Divergences:    v.Divergences.Load(),
		CoverageTS:     v.CoverageTS.Load(),
		LastPassUnixNs: v.LastPassUnixNs.Load(),
	})
}
