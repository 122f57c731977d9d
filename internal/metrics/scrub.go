package metrics

import "sync/atomic"

// ScrubMetrics track the online consistency scrubber (DESIGN.md §7.4): the
// background plane that continuously re-verifies every indexed view against
// a recompute over its source relation at MVCC snapshot timestamps. Global
// counters live here; the per-view coverage state is in each view's record.
type ScrubMetrics struct {
	// Cycles counts completed full passes: every view in the catalog verified
	// end to end since the cycle began.
	Cycles atomic.Int64
	// Slices counts verified slices — the scrubber's unit of work, one whole
	// view checked against one snapshot pair, at most one per tick.
	Slices atomic.Int64
	// RowsVerified counts rows the scrubber read to verify slices: source
	// rows recomputed plus view rows compared. This is the quantity the row
	// budget paces.
	RowsVerified atomic.Int64
	// Divergences counts view rows whose stored contents disagreed with the
	// recompute — each one is a broken invariant, never expected in a healthy
	// engine.
	Divergences atomic.Int64
	// SnapshotRetries counts watermark pins refused because the prune horizon
	// had already passed the timestamp (retried with a fresher watermark).
	SnapshotRetries atomic.Int64
	// LastFullPassUnixNs is the wall clock (UnixNano) at which the most
	// recent full pass completed; zero until the first one does.
	LastFullPassUnixNs atomic.Int64
	// CycleDur times full passes, wall-clock from a cycle's first slice to
	// its last.
	CycleDur Histogram
	// Views is the registry's per-view records, where the scrubber keeps
	// each view's coverage. Nil-safe.
	Views *Views
}
