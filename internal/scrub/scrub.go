// Package scrub implements the online consistency scrubber (DESIGN.md §7.4):
// a background verification plane that continuously re-checks every indexed
// view against a recompute over its source relation at MVCC snapshot
// timestamps, one whole view per tick, without ever touching the lock
// manager. It is the always-on twin of core.CheckConsistency — the offline
// check quiesces the engine once, the scrubber audits the same invariant
// forever, under live traffic, paced by a row budget.
//
// Timestamp selection is where all the correctness lives, and it differs by
// maintenance class:
//
//   - Immediate views (escrow / X-lock, including stacked chains of them)
//     are maintained synchronously inside the committing transaction, so
//     view@ts == recompute(source@ts) at EVERY timestamp: one pinned
//     snapshot serves both sides of the comparison.
//
//   - A deferred view stacked on a deferred parent folds co-atomically with
//     it — the applier commits the whole cascade component in one system
//     transaction at one timestamp — so child@ts == recompute(parent@ts)
//     also holds at every timestamp, and one pin again suffices.
//
//   - A deferred component root (source is a base table or an immediate
//     view) lags its source: its contents are the last fold's, which covered
//     commits up to the fold's frontier, not the current read timestamp.
//     These verify through the oracle's (applyTS, watermark) pair: a fold, a
//     refresh or a create publishes its commit timestamp as applyTS and the
//     source frontier it covered as the watermark, and the watermark later
//     only moves past commits that left the view alone. So view@ts_v equals
//     recompute(source@watermark) for every ts_v >= applyTS, until the next
//     fold becomes visible. A slice pins the view side at the current read
//     timestamp ts_v first and reads the pair second. Each writer of the pair
//     publishes it before its commit timestamp becomes visible
//     (pre-FinishCommit), so every fold visible at ts_v has already updated
//     the pair the slice reads; and a fold that is not visible at ts_v but
//     has published shows as applyTS > ts_v, which the slice waits out by
//     re-pinning. applyTS <= ts_v therefore names exactly the fold ts_v
//     sees, and the slice compares view@ts_v with the source pinned at the
//     watermark. Both sides are fixed snapshots: a fold landing during the
//     compare changes neither, so the pair need not be read again, and no
//     slice is ever thrown away.
package scrub

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/verify"
)

// View is one catalog view as the scrubber sees it.
type View struct {
	Tree id.Tree
	Name string
	// Pair marks a deferred component root: verification goes through the
	// (applyTS, watermark) pair protocol instead of a single pinned snapshot.
	Pair bool
}

// Divergence reports one slice whose stored view rows disagreed with the
// recompute. ViewTS is the timestamp the view rows were read at, SourceTS the
// timestamp the recompute ran at (equal for single-pin views).
type Divergence struct {
	View     View
	ViewTS   uint64
	SourceTS uint64
	Diffs    []verify.Diff
}

// Engine is the surface the scrubber drives. All methods must be safe for
// concurrent use; the core adapter backs them with snapshot reads only.
type Engine interface {
	// Plan returns the current catalog's views in tree-ID order — which is
	// topological for stacked DAGs, so a parent is scrubbed before the child
	// checked against it.
	Plan() []View
	// Pin pins the current read timestamp and returns it with a release.
	Pin() (ts uint64, release func())
	// PinAt pins a specific past timestamp; ok is false when the prune
	// horizon has already passed it (caller retries with a fresher one).
	PinAt(ts uint64) (release func(), ok bool)
	// Applied returns the deferred view's (applyTS, watermark) pair: the last
	// fold's commit timestamp and the frontier that fold covered.
	Applied(tree id.Tree) (applyTS, watermark uint64)
	// Verify compares the view's stored rows as of viewTS with a recompute
	// over its source as of srcTS. It returns the rows read (source rows
	// recomputed plus view rows compared) and at most max diffs.
	Verify(tree id.Tree, viewTS, srcTS uint64, max int) (rows int, diffs []verify.Diff, err error)
	// Report delivers a confirmed divergence (trace event, flight dump). The
	// scrubber keeps running afterwards.
	Report(d Divergence)
}

// Config tunes a Scrubber. The caller resolves defaults before construction.
type Config struct {
	// Interval is the period the caller calls Tick at: each tick deposits
	// one interval's worth of RowBudget.
	Interval time.Duration
	// RowBudget paces verification in rows per second (source rows recomputed
	// plus view rows compared); <= 0 removes pacing.
	RowBudget int
	// Metrics receives counters, and per-view coverage state in the records
	// of Metrics.Views; must be non-nil.
	Metrics *metrics.ScrubMetrics
}

// maxDiffsPerSlice caps the diffs recorded for one diverging slice, so a
// wholly corrupted view reports a bounded sample rather than every row.
const maxDiffsPerSlice = 16

// Scrubber drives an Engine: budget-paced background slices, one whole view
// per Tick, plus on-demand unpaced FullPass sweeps. Tick owns the cycle
// bookkeeping; FullPass keeps none, so the two may execute concurrently.
type Scrubber struct {
	e   Engine
	cfg Config

	// Background state, owned by the caller of Tick.
	pending map[id.Tree]bool // views not yet verified this cycle
	cycleAt time.Time
	after   id.Tree // round-robin position: next slice goes to the first tree after this
	// allowance is the token bucket pacing Tick, in rows.
	allowance float64
}

// sliceResult is one slice's outcome.
type sliceResult struct {
	rows     int // rows charged against the budget
	diverged int // diffs found (already reported)
	err      error
}

// New returns a Scrubber over e. cfg.Metrics must be non-nil.
func New(e Engine, cfg Config) *Scrubber {
	return &Scrubber{
		e:         e,
		cfg:       cfg,
		allowance: float64(cfg.RowBudget) * cfg.Interval.Seconds(),
	}
}

// Tick is one background step: it verifies the next view, cycling views
// round-robin, unless the row budget is spent. Token-bucket pacing: each tick
// deposits one interval's worth of rows, capped at one second's budget so an
// idle stretch buys a bounded burst, and a slice is charged its rows after it
// ran — so a slice of N rows is followed by about N/(RowBudget·Interval)
// skipped ticks. Engine errors (e.g. a closing database) only skip the slice.
func (s *Scrubber) Tick() {
	if s.cfg.RowBudget > 0 {
		s.allowance = min(s.allowance+float64(s.cfg.RowBudget)*s.cfg.Interval.Seconds(), float64(s.cfg.RowBudget))
		if s.allowance < 1 {
			return // over budget: skip the tick, keep accruing
		}
	}
	plan := s.e.Plan()
	if len(plan) == 0 {
		return
	}
	s.syncPlan(plan)
	v := s.nextView(plan)
	res := s.slice(v)
	s.allowance -= float64(res.rows)
	s.after = v.Tree
	if res.err == nil {
		delete(s.pending, v.Tree)
		if len(s.pending) == 0 {
			s.finishCycle(time.Now())
		}
	}
}

// syncPlan reconciles the cycle with the current catalog: drops vanished
// views and starts a new cycle when none is active.
func (s *Scrubber) syncPlan(plan []View) {
	live := make(map[id.Tree]bool, len(plan))
	for _, v := range plan {
		live[v.Tree] = true
	}
	for tree := range s.pending {
		if !live[tree] {
			delete(s.pending, tree)
		}
	}
	if len(s.pending) == 0 {
		s.pending = live
		s.cycleAt = time.Now()
	}
}

// nextView picks the round-robin successor of s.after in plan (which is
// tree-ID sorted), wrapping to the first view.
func (s *Scrubber) nextView(plan []View) View {
	for _, v := range plan {
		if v.Tree > s.after {
			return v
		}
	}
	return plan[0]
}

// finishCycle records a completed full pass over every view in the plan.
func (s *Scrubber) finishCycle(now time.Time) {
	s.cfg.Metrics.Cycles.Add(1)
	s.cfg.Metrics.LastFullPassUnixNs.Store(now.UnixNano())
	if !s.cycleAt.IsZero() {
		s.cfg.Metrics.CycleDur.Observe(now.Sub(s.cycleAt))
	}
	s.pending = nil // syncPlan starts the next cycle
}

// FullPass verifies every view end to end, unpaced, on the caller's
// goroutine — the on-demand sweep behind DB.ScrubNow, vtxnshell scrub full,
// and the smoke/torture harnesses. It keeps no cycle bookkeeping of its own,
// so it is safe concurrently with Tick. Returns the total diffs found (each
// already Reported).
func (s *Scrubber) FullPass(ctx context.Context) (diverged int64, err error) {
	start := time.Now()
	for _, v := range s.e.Plan() {
		if err := ctx.Err(); err != nil {
			return diverged, err
		}
		res := s.slice(v)
		diverged += int64(res.diverged)
		if res.err != nil {
			return diverged, fmt.Errorf("scrub: view %q: %w", v.Name, res.err)
		}
	}
	// Record the cycle through metrics only: finishCycle's s.pending/cycleAt
	// bookkeeping belongs to Tick, which may be running now.
	now := time.Now()
	s.cfg.Metrics.Cycles.Add(1)
	s.cfg.Metrics.LastFullPassUnixNs.Store(now.UnixNano())
	s.cfg.Metrics.CycleDur.Observe(now.Sub(start))
	return diverged, nil
}

// slice verifies one whole view against one snapshot pair: a single pin for
// both sides, or the deferred-root pair protocol.
func (s *Scrubber) slice(v View) sliceResult {
	if v.Pair {
		return s.pairSlice(v)
	}
	ts, release := s.e.Pin()
	defer release()
	return s.compare(v, ts, ts)
}

// pairSlice is the deferred-root protocol (see the package comment): pin the
// view at the current read timestamp, read the pair, and pin the source at
// the view's covered watermark.
func (s *Scrubber) pairSlice(v View) sliceResult {
	for {
		tsV, releaseV := s.e.Pin()
		applyTS, wm := s.e.Applied(v.Tree)
		if wm == 0 {
			// No watermark yet: the view is mid-create. Nothing to verify;
			// the pass is done so the cycle is not held hostage.
			releaseV()
			return sliceResult{}
		}
		if applyTS > tsV {
			// A fold sits between its pre-finish hook and FinishCommit: its
			// commit timestamp becomes readable in a moment, with no I/O in
			// between. Yield and re-pin.
			releaseV()
			runtime.Gosched()
			continue
		}
		releaseS, ok := s.e.PinAt(wm)
		if !ok {
			// The horizon passed the watermark before we pinned it (another
			// fold round advanced the frontier). Retry with the fresher pair.
			s.cfg.Metrics.SnapshotRetries.Add(1)
			releaseV()
			continue
		}
		defer releaseV()
		defer releaseS()
		return s.compare(v, tsV, wm)
	}
}

// compare verifies view@viewTS against recompute(source@srcTS) and commits
// the outcome: counters, the view's pass and coverage, divergence report.
func (s *Scrubber) compare(v View, viewTS, srcTS uint64) sliceResult {
	rows, diffs, err := s.e.Verify(v.Tree, viewTS, srcTS, maxDiffsPerSlice)
	if err != nil {
		return sliceResult{err: err}
	}
	m := s.cfg.Metrics
	m.Slices.Add(1)
	m.RowsVerified.Add(int64(rows))
	m.Divergences.Add(int64(len(diffs)))
	// A view dropped since the plan was read has no record.
	if vs := m.Views.Get(v.Tree); vs != nil {
		vs.RowsVerified.Add(int64(rows))
		vs.Divergences.Add(int64(len(diffs)))
		vs.Passes.Add(1)
		vs.LastPassUnixNs.Store(time.Now().UnixNano())
		storeMaxU64(&vs.CoverageTS, viewTS)
	}
	if len(diffs) > 0 {
		s.e.Report(Divergence{View: v, ViewTS: viewTS, SourceTS: srcTS, Diffs: diffs})
	}
	return sliceResult{rows: rows, diverged: len(diffs)}
}

// storeMaxU64 advances an atomic to ts if it is larger (Tick and a concurrent
// FullPass both complete passes; coverage only moves up).
func storeMaxU64(a interface {
	Load() uint64
	CompareAndSwap(old, new uint64) bool
}, ts uint64) {
	for {
		cur := a.Load()
		if ts <= cur || a.CompareAndSwap(cur, ts) {
			return
		}
	}
}
