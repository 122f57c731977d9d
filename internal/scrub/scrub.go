// Package scrub implements the online consistency scrubber (DESIGN.md §7.4):
// a background verification plane that continuously re-checks every indexed
// view against a recompute over its source relation at MVCC snapshot
// timestamps, one (view, group-range) slice per tick, without ever touching
// the lock manager. It is the always-on twin of core.CheckConsistency — the
// offline check quiesces the engine once, the scrubber audits the same
// invariant forever, under live traffic, paced by a row budget.
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
//     view) lags its source: its contents reflect the applier's last fold,
//     which covered commits up to the fold's frontier, not the current read
//     timestamp. These verify through the oracle's (applyTS, watermark)
//     pair: view@ts_v (for any ts_v >= applyTS with no later fold visible)
//     equals recompute(source@watermark). The slice pins the current read
//     timestamp for the view, pins the watermark for the source (the
//     watermark participates in the prune horizon, so the pin is almost
//     always admitted), compares, and then re-reads the pair: a fold that
//     landed mid-slice changes applyTS, and the slice is discarded — a
//     Conflict, costing progress but never a false divergence. The pair is
//     published before the fold's commit timestamp becomes visible
//     (pre-FinishCommit), so a fold visible at ts_v is always reflected in
//     the pair the slice read.
package scrub

import (
	"context"
	"fmt"
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
	// topological for stacked DAGs, so a parent is scrubbed before (and, per
	// slice, at the same snapshot timestamp as) the child checked against it.
	Plan() []View
	// Pin pins the current read timestamp and returns it with a release.
	Pin() (ts uint64, release func())
	// PinAt pins a specific past timestamp; ok is false when the prune
	// horizon has already passed it (caller retries with a fresher one).
	PinAt(ts uint64) (release func(), ok bool)
	// Applied returns the deferred view's (applyTS, watermark) pair: the last
	// fold's commit timestamp and the frontier that fold covered.
	Applied(tree id.Tree) (applyTS, watermark uint64)
	// Have scans the view's stored rows from lo at ts, returning at most max
	// decoded entries and the next key to resume from (nil when the scan
	// reached the end of the view).
	Have(tree id.Tree, lo []byte, ts uint64, max int) (entries []verify.Entry, next []byte, err error)
	// Want recomputes the view from its source relation at ts, returning the
	// full expected contents (key-sorted, stored form) and the number of
	// source rows read.
	Want(tree id.Tree, ts uint64) (entries []verify.Entry, srcRows int, err error)
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
	// MaxGroups bounds the view entries per slice; 0 selects 128.
	MaxGroups int
	// Metrics receives counters and per-view coverage state; must be non-nil.
	Metrics *metrics.ScrubMetrics
}

// defaultMaxGroups is the per-slice view-entry bound.
const defaultMaxGroups = 128

// maxDiffsPerSlice caps the diffs recorded for one diverging slice, so a
// wholly corrupted view reports a bounded sample rather than every row.
const maxDiffsPerSlice = 16

// pinAttempts bounds the inline retries for transient pin failures inside
// one slice (pair read racing a fold, watermark passed by the horizon).
const pinAttempts = 8

// Scrubber drives an Engine: budget-paced background slices, one per Tick,
// plus on-demand unpaced FullPass sweeps. Tick owns the background per-view
// cursors; FullPass uses only local state, so the two may execute
// concurrently.
type Scrubber struct {
	e   Engine
	cfg Config

	// Background state, owned by the caller of Tick.
	state   map[id.Tree]*viewState
	pending map[id.Tree]bool // views not yet fully passed this cycle
	cycleAt time.Time
	after   id.Tree // round-robin position: next slice goes to the first tree after this
	// allowance is the token bucket pacing Tick, in rows.
	allowance float64
}

// viewState is one view's in-progress pass.
type viewState struct {
	cursor []byte // nil: next slice starts a new pass
	passTS uint64 // the pass's first slice's view timestamp
}

// sliceResult is one slice's outcome.
type sliceResult struct {
	rows      int  // rows charged against the budget
	done      bool // the pass reached the end of the view
	diverged  int  // diffs found (already reported)
	discarded bool // transient conflict/pin failure; cursor did not advance
	err       error
}

// New returns a Scrubber over e. cfg.Metrics must be non-nil.
func New(e Engine, cfg Config) *Scrubber {
	if cfg.MaxGroups <= 0 {
		cfg.MaxGroups = defaultMaxGroups
	}
	return &Scrubber{
		e:         e,
		cfg:       cfg,
		state:     make(map[id.Tree]*viewState),
		allowance: float64(cfg.RowBudget) * cfg.Interval.Seconds(),
	}
}

// Tick is one background step: it verifies the next slice, cycling views
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
	st := s.state[v.Tree]
	if st == nil {
		st = &viewState{}
		s.state[v.Tree] = st
	}
	res := s.slice(v, st, s.cfg.MaxGroups)
	s.allowance -= float64(res.rows)
	s.after = v.Tree
	if res.done {
		s.finishPass(v, st, time.Now())
		delete(s.pending, v.Tree)
		if len(s.pending) == 0 {
			s.finishCycle(time.Now())
		}
	}
}

// syncPlan reconciles loop state with the current catalog: drops state for
// vanished views and (re)starts the cycle bookkeeping when none is active.
func (s *Scrubber) syncPlan(plan []View) {
	live := make(map[id.Tree]bool, len(plan))
	for _, v := range plan {
		live[v.Tree] = true
	}
	for tree := range s.state {
		if !live[tree] {
			delete(s.state, tree)
			delete(s.pending, tree)
		}
	}
	for tree := range s.pending {
		if !live[tree] {
			delete(s.pending, tree)
		}
	}
	if len(s.pending) == 0 {
		s.pending = make(map[id.Tree]bool, len(plan))
		for _, v := range plan {
			s.pending[v.Tree] = true
		}
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

// finishPass records one completed end-to-end verification of v: every group
// has now been checked at a snapshot timestamp >= the pass's first slice's
// (timestamps only grow, so the first slice's is the floor).
func (s *Scrubber) finishPass(v View, st *viewState, now time.Time) {
	vs := s.cfg.Metrics.Views.Get(v.Tree)
	vs.Passes.Add(1)
	vs.LastPassUnixNs.Store(now.UnixNano())
	storeMaxU64(&vs.CoverageTS, st.passTS)
	st.cursor, st.passTS = nil, 0
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
// and the smoke/torture harnesses. Each view is one unbounded slice: a slice
// recomputes the whole expected view whatever its width, so with no budget to
// pace there is nothing to gain from paying that once per MaxGroups rows. It
// uses only local cursors, so it is safe concurrently with Tick. Returns the total diffs found (each already Reported).
func (s *Scrubber) FullPass(ctx context.Context) (diverged int64, err error) {
	start := time.Now()
	plan := s.e.Plan()
	for _, v := range plan {
		st := &viewState{}
		discards := 0
		for {
			if err := ctx.Err(); err != nil {
				return diverged, err
			}
			res := s.slice(v, st, 0)
			diverged += int64(res.diverged)
			if res.err != nil {
				return diverged, fmt.Errorf("scrub: view %q: %w", v.Name, res.err)
			}
			if res.done {
				s.finishPass(v, st, time.Now())
				break
			}
			if res.discarded {
				// A fold landed mid-slice (or the horizon passed the pinned
				// watermark). Back off briefly; under sustained writes the
				// slice normally completes between applier rounds.
				if discards++; discards > 500 {
					return diverged, fmt.Errorf("scrub: view %q: %d consecutive conflicts, applier outpaces verification", v.Name, discards)
				}
				time.Sleep(2 * time.Millisecond)
			} else {
				discards = 0
			}
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

// slice verifies one (view, group-range) slice: scan up to max stored view
// entries from st.cursor, recompute the expected contents from the source,
// clip to the scanned range, and compare. On success the cursor advances (or
// the pass completes); a pair conflict discards the work.
func (s *Scrubber) slice(v View, st *viewState, max int) sliceResult {
	if v.Pair {
		return s.pairSlice(v, st, max)
	}
	ts, release := s.e.Pin()
	defer release()
	out := s.compareRange(v, st.cursor, ts, ts, max)
	return s.commit(v, st, ts, ts, out)
}

// pairSlice is the deferred-root protocol (see the package comment): pin the
// view at the current read timestamp, the source at the view's covered
// watermark, and discard the slice if a fold commits in between.
func (s *Scrubber) pairSlice(v View, st *viewState, max int) sliceResult {
	m := s.cfg.Metrics
	for attempt := 0; attempt < pinAttempts; attempt++ {
		tsV, releaseV := s.e.Pin()
		applyTS, wm := s.e.Applied(v.Tree)
		if wm == 0 {
			// No create barrier yet: the view is mid-backfill. Nothing to
			// verify; report the pass done so the cycle is not held hostage.
			releaseV()
			return sliceResult{done: st.cursor == nil}
		}
		if applyTS > tsV {
			// A fold committed between the watermark read and our pin; its
			// effect is visible at any fresher timestamp, so just re-pin.
			releaseV()
			continue
		}
		releaseS, ok := s.e.PinAt(wm)
		if !ok {
			// The horizon passed the watermark before we pinned it (another
			// fold round advanced the frontier). Retry with the fresher pair.
			m.SnapshotRetries.Add(1)
			releaseV()
			continue
		}
		out := s.compareRange(v, st.cursor, tsV, wm, max)
		applyTS2, _ := s.e.Applied(v.Tree)
		releaseS()
		releaseV()
		if out.err == nil && applyTS2 != applyTS {
			// A fold landed mid-slice: the comparison may have mixed the old
			// expectation with new view contents. The work still counts
			// against the budget, but the cursor must not advance and any
			// diffs are noise, not divergences.
			m.Conflicts.Add(1)
			return sliceResult{rows: out.rows, discarded: true}
		}
		return s.commit(v, st, tsV, wm, out)
	}
	return sliceResult{discarded: true}
}

// rangeOutcome is one compareRange result, side-effect-free so the pair
// protocol can validate before anything is recorded or the cursor moves.
type rangeOutcome struct {
	rows  int
	next  []byte
	diffs []verify.Diff
	err   error
}

// compareRange reads the slice's view rows from lo at viewTS, recomputes the
// source at srcTS, and compares the overlapping range. No side effects.
func (s *Scrubber) compareRange(v View, lo []byte, viewTS, srcTS uint64, max int) rangeOutcome {
	have, next, err := s.e.Have(v.Tree, lo, viewTS, max)
	if err != nil {
		return rangeOutcome{err: err}
	}
	want, srcRows, err := s.e.Want(v.Tree, srcTS)
	if err != nil {
		return rangeOutcome{err: err}
	}
	expected := verify.Clip(want, lo, next)
	return rangeOutcome{
		rows:  srcRows + len(have),
		next:  next,
		diffs: verify.Compare(expected, have, maxDiffsPerSlice),
	}
}

// commit records a validated slice: metrics, divergence report, cursor
// advance.
func (s *Scrubber) commit(v View, st *viewState, viewTS, srcTS uint64, out rangeOutcome) sliceResult {
	if out.err != nil {
		return sliceResult{err: out.err}
	}
	m := s.cfg.Metrics
	m.Slices.Add(1)
	m.RowsVerified.Add(int64(out.rows))
	vs := m.Views.Get(v.Tree)
	vs.RowsVerified.Add(int64(out.rows))
	if len(out.diffs) > 0 {
		m.Divergences.Add(int64(len(out.diffs)))
		vs.Divergences.Add(int64(len(out.diffs)))
		s.e.Report(Divergence{View: v, ViewTS: viewTS, SourceTS: srcTS, Diffs: out.diffs})
	}
	if st.cursor == nil {
		st.passTS = viewTS
	}
	st.cursor = out.next
	return sliceResult{rows: out.rows, done: out.next == nil, diverged: len(out.diffs)}
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
