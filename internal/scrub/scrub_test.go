package scrub

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/verify"
)

// fakeEngine is an in-memory Engine: each view's stored contents and its
// recompute result are plain entry lists, timestamps are a counter, and the
// hooks let tests interleave "folds" mid-slice.
type fakeEngine struct {
	mu      sync.Mutex
	plan    []View
	ts      uint64
	pins    int // currently held pins
	applyTS map[id.Tree]uint64
	wm      map[id.Tree]uint64
	view    map[id.Tree][]verify.Entry // stored rows
	src     map[id.Tree][]verify.Entry // recompute result
	// pinAtDeny makes the next n PinAt calls fail (horizon passed).
	pinAtDeny int
	// onHave runs (locked out) after Have's scan — the mid-slice fold hook.
	onHave  func()
	reports []Divergence
}

func entry(key string, v int64) verify.Entry {
	return verify.Entry{Key: []byte(key), Val: record.Row{record.Int(v)}}
}

func newFakeEngine() *fakeEngine {
	return &fakeEngine{
		ts:      100,
		applyTS: make(map[id.Tree]uint64),
		wm:      make(map[id.Tree]uint64),
		view:    make(map[id.Tree][]verify.Entry),
		src:     make(map[id.Tree][]verify.Entry),
	}
}

func (e *fakeEngine) Plan() []View {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]View(nil), e.plan...)
}

func (e *fakeEngine) Pin() (uint64, func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pins++
	return e.ts, func() {
		e.mu.Lock()
		e.pins--
		e.mu.Unlock()
	}
}

func (e *fakeEngine) PinAt(ts uint64) (func(), bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pinAtDeny > 0 {
		e.pinAtDeny--
		return nil, false
	}
	e.pins++
	return func() {
		e.mu.Lock()
		e.pins--
		e.mu.Unlock()
	}, true
}

func (e *fakeEngine) Applied(tree id.Tree) (uint64, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyTS[tree], e.wm[tree]
}

func (e *fakeEngine) Have(tree id.Tree, lo []byte, ts uint64, max int) ([]verify.Entry, []byte, error) {
	e.mu.Lock()
	var out []verify.Entry
	var next []byte
	for _, en := range e.view[tree] {
		if lo != nil && bytes.Compare(en.Key, lo) < 0 {
			continue
		}
		if max > 0 && len(out) == max {
			next = append([]byte(nil), en.Key...)
			break
		}
		out = append(out, en)
	}
	hook := e.onHave
	e.mu.Unlock()
	if hook != nil {
		hook()
	}
	return out, next, nil
}

func (e *fakeEngine) Want(tree id.Tree, ts uint64) ([]verify.Entry, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]verify.Entry(nil), e.src[tree]...), len(e.src[tree]), nil
}

func (e *fakeEngine) Report(d Divergence) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reports = append(e.reports, d)
}

func (e *fakeEngine) reportCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.reports)
}

func newScrubber(e Engine, maxGroups int) (*Scrubber, *metrics.ScrubMetrics) {
	m := &metrics.ScrubMetrics{}
	return New(e, Config{MaxGroups: maxGroups, Metrics: m}), m
}

// TestSinglePinPass: a clean immediate view verifies across multiple slices,
// completes a pass and a cycle, and records coverage at the pass's first ts.
func TestSinglePinPass(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(7)
	e.plan = []View{{Tree: tree, Name: "v"}}
	rows := []verify.Entry{entry("a", 1), entry("b", 2), entry("c", 3), entry("d", 4), entry("e", 5)}
	e.view[tree] = rows
	e.src[tree] = rows
	s, m := newScrubber(e, 2)

	ticks := 0
	for m.Cycles.Load() == 0 {
		if ticks++; ticks > 10 {
			t.Fatalf("no cycle after %d ticks", ticks)
		}
		s.Tick()
	}
	if got := m.Slices.Load(); got != 3 {
		t.Fatalf("slices = %d, want 3 (5 rows / max 2)", got)
	}
	// Each slice charges srcRows (5) + scanned view rows (2/2/1).
	if got := m.RowsVerified.Load(); got != 3*5+5 {
		t.Fatalf("rows verified = %d, want 20", got)
	}
	if got := m.Divergences.Load(); got != 0 {
		t.Fatalf("divergences = %d, want 0", got)
	}
	vs := m.Views.Get(tree)
	if vs.Passes.Load() != 1 {
		t.Fatalf("view passes = %d, want 1", vs.Passes.Load())
	}
	if got := vs.CoverageTS.Load(); got != 100 {
		t.Fatalf("coverage ts = %d, want 100", got)
	}
	if e.pins != 0 {
		t.Fatalf("%d pins leaked", e.pins)
	}
}

// TestDivergenceReported: a stored row disagreeing with the recompute is
// counted, attributed to the view, and Reported with the diff detail.
func TestDivergenceReported(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(3)
	e.plan = []View{{Tree: tree, Name: "bad"}}
	e.view[tree] = []verify.Entry{entry("a", 1), entry("b", 99)}
	e.src[tree] = []verify.Entry{entry("a", 1), entry("b", 2)}
	s, m := newScrubber(e, 0)

	s.Tick()
	if got := m.Divergences.Load(); got != 1 {
		t.Fatalf("divergences = %d, want 1", got)
	}
	if got := m.Views.Get(tree).Divergences.Load(); got != 1 {
		t.Fatalf("view divergences = %d, want 1", got)
	}
	if len(e.reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(e.reports))
	}
	d := e.reports[0]
	if d.View.Name != "bad" || len(d.Diffs) != 1 {
		t.Fatalf("report = %+v", d)
	}
	if d.Diffs[0].Kind != verify.DiffMismatch || string(d.Diffs[0].Key) != "b" {
		t.Fatalf("diff = %+v", d.Diffs[0])
	}
	if d.ViewTS != d.SourceTS {
		t.Fatalf("single-pin slice has viewTS %d != sourceTS %d", d.ViewTS, d.SourceTS)
	}
}

// TestPairSliceCleanAndLagging: a deferred root whose view lags its source
// verifies view@ts_v against recompute(source@wm) — the lag is not a
// divergence as long as the pair is honest.
func TestPairSliceCleanAndLagging(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(5)
	e.plan = []View{{Tree: tree, Name: "d", Pair: true}}
	// View reflects the fold at applyTS=90 covering commits <= wm=95; the
	// source has since moved on (entries the recompute at wm would NOT see are
	// represented simply by src == view's folded state).
	e.view[tree] = []verify.Entry{entry("a", 1), entry("b", 2)}
	e.src[tree] = []verify.Entry{entry("a", 1), entry("b", 2)}
	e.applyTS[tree] = 90
	e.wm[tree] = 95
	s, m := newScrubber(e, 0)

	s.Tick()
	if got := m.Divergences.Load(); got != 0 {
		t.Fatalf("divergences = %d, want 0", got)
	}
	if got := m.Slices.Load(); got != 1 {
		t.Fatalf("slices = %d, want 1", got)
	}
	if e.reports != nil {
		t.Fatalf("unexpected reports %+v", e.reports)
	}
	if e.pins != 0 {
		t.Fatalf("%d pins leaked", e.pins)
	}
}

// TestPairSliceConflictDiscards: a fold landing mid-slice flips the pair's
// applyTS; the slice must discard — conflict counted, cursor not advanced, no
// divergence reported even though the comparison saw mixed state.
func TestPairSliceConflictDiscards(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(5)
	e.plan = []View{{Tree: tree, Name: "d", Pair: true}}
	e.view[tree] = []verify.Entry{entry("a", 1)}
	e.src[tree] = []verify.Entry{entry("a", 1)}
	e.applyTS[tree] = 90
	e.wm[tree] = 95
	// Mid-slice, a fold commits: view gains a row the wm-recompute lacks and
	// the pair advances.
	folded := false
	e.onHave = func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if !folded {
			folded = true
			e.view[tree] = []verify.Entry{entry("a", 1), entry("z", 9)}
			e.src[tree] = e.view[tree] // recompute at the new wm sees the fold
			e.applyTS[tree] = 101
			e.wm[tree] = 101
			e.ts = 102
		}
	}
	s, m := newScrubber(e, 0)

	s.Tick()
	if got := m.Conflicts.Load(); got != 1 {
		t.Fatalf("conflicts = %d, want 1", got)
	}
	if got := m.Divergences.Load(); got != 0 {
		t.Fatalf("divergences = %d, want 0 (conflicted slice must not report)", got)
	}
	if got := m.Slices.Load(); got != 0 {
		t.Fatalf("slices = %d, want 0 (discarded)", got)
	}
	// The next tick sees the settled pair and verifies clean.
	s.Tick()
	if got := m.Slices.Load(); got != 1 {
		t.Fatalf("slices after retry = %d, want 1", got)
	}
	if got := m.Divergences.Load(); got != 0 {
		t.Fatalf("divergences after retry = %d, want 0", got)
	}
}

// TestPairSliceSnapshotRetry: PinAt refusing the watermark (horizon passed it)
// counts a snapshot retry and the slice re-reads a fresher pair inline.
func TestPairSliceSnapshotRetry(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(2)
	e.plan = []View{{Tree: tree, Name: "d", Pair: true}}
	e.view[tree] = []verify.Entry{entry("a", 1)}
	e.src[tree] = []verify.Entry{entry("a", 1)}
	e.applyTS[tree] = 90
	e.wm[tree] = 95
	e.pinAtDeny = 2
	s, m := newScrubber(e, 0)

	s.Tick()
	if got := m.SnapshotRetries.Load(); got != 2 {
		t.Fatalf("snapshot retries = %d, want 2", got)
	}
	if got := m.Slices.Load(); got != 1 {
		t.Fatalf("slices = %d, want 1 (inline retry must succeed)", got)
	}
	if e.pins != 0 {
		t.Fatalf("%d pins leaked", e.pins)
	}
}

// TestPairSliceBackfill: a deferred view with no watermark yet (mid-backfill)
// reports its pass done without verifying anything.
func TestPairSliceBackfill(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(2)
	e.plan = []View{{Tree: tree, Name: "d", Pair: true}}
	s, m := newScrubber(e, 0)

	s.Tick()
	if got := m.Slices.Load(); got != 0 {
		t.Fatalf("slices = %d, want 0", got)
	}
	if got := m.Cycles.Load(); got != 1 {
		t.Fatalf("cycles = %d, want 1 (backfill must not wedge the cycle)", got)
	}
}

// TestRoundRobinAndSyncPlan: ticks rotate across views, and a view vanishing
// from the plan drops its state without wedging the cycle.
func TestRoundRobinAndSyncPlan(t *testing.T) {
	e := newFakeEngine()
	a, b := id.Tree(1), id.Tree(2)
	e.plan = []View{{Tree: a, Name: "a"}, {Tree: b, Name: "b"}}
	e.view[a] = []verify.Entry{entry("k", 1)}
	e.src[a] = e.view[a]
	e.view[b] = []verify.Entry{entry("k", 2)}
	e.src[b] = e.view[b]
	s, m := newScrubber(e, 0)

	s.Tick() // a
	s.Tick() // b → cycle 1 done
	if got := m.Cycles.Load(); got != 1 {
		t.Fatalf("cycles = %d, want 1", got)
	}
	if m.Views.Get(a).Passes.Load() != 1 || m.Views.Get(b).Passes.Load() != 1 {
		t.Fatalf("passes a=%d b=%d, want 1/1", m.Views.Get(a).Passes.Load(), m.Views.Get(b).Passes.Load())
	}
	// Drop b mid-cycle: a alone completes cycles.
	s.Tick() // a again (cycle 2 pending {a,b}... a done)
	e.mu.Lock()
	e.plan = e.plan[:1]
	e.mu.Unlock()
	s.Tick()
	s.Tick()
	if got := m.Cycles.Load(); got < 2 {
		t.Fatalf("cycles = %d, want >= 2 after dropping b", got)
	}
	if _, ok := s.state[b]; ok {
		t.Fatalf("state for dropped view survived syncPlan")
	}
}

// TestFullPass: the unpaced sweep verifies every view, returns the diff count,
// and records a cycle without touching Tick's pending set.
func TestFullPass(t *testing.T) {
	e := newFakeEngine()
	a, b := id.Tree(1), id.Tree(2)
	e.plan = []View{{Tree: a, Name: "ok"}, {Tree: b, Name: "bad"}}
	e.view[a] = []verify.Entry{entry("k", 1), entry("l", 2), entry("m", 3)}
	e.src[a] = e.view[a]
	e.view[b] = []verify.Entry{entry("k", 5)}
	e.src[b] = []verify.Entry{entry("k", 6)}
	s, m := newScrubber(e, 2)

	n, err := s.FullPass(context.Background())
	if err != nil {
		t.Fatalf("FullPass: %v", err)
	}
	if n != 1 {
		t.Fatalf("diverged = %d, want 1", n)
	}
	if got := m.Cycles.Load(); got != 1 {
		t.Fatalf("cycles = %d, want 1", got)
	}
	if got := e.reportCount(); got != 1 {
		t.Fatalf("reports = %d, want 1", got)
	}
	if m.Views.Get(a).Passes.Load() != 1 || m.Views.Get(b).Passes.Load() != 1 {
		t.Fatalf("full pass did not complete per-view passes")
	}
	if e.pins != 0 {
		t.Fatalf("%d pins leaked", e.pins)
	}
}

// TestFullPassCanceled: a canceled context stops the sweep with its error.
func TestFullPassCanceled(t *testing.T) {
	e := newFakeEngine()
	e.plan = []View{{Tree: id.Tree(1), Name: "v"}}
	s, _ := newScrubber(e, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.FullPass(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTickTokenBucket drives the row budget with Tick calls alone. At 64 rows/s
// and a 250ms interval each tick deposits 16 rows; a slice over a 40-group
// view charges 80 (40 recomputed, 40 compared), so after it the scrubber skips
// ticks until the allowance is back to at least one row — a slice every
// 80/16 = 5 ticks. An idle stretch fills the bucket to one second's budget
// and no further.
func TestTickTokenBucket(t *testing.T) {
	e := newFakeEngine()
	tree := id.Tree(1)
	plan := []View{{Tree: tree, Name: "v"}}
	e.plan = plan
	for i := 0; i < 40; i++ {
		e.view[tree] = append(e.view[tree], entry(fmt.Sprintf("k%02d", i), int64(i)))
	}
	e.src[tree] = e.view[tree]
	m := &metrics.ScrubMetrics{}
	const budget = 64
	s := New(e, Config{Interval: 250 * time.Millisecond, RowBudget: budget, Metrics: m})

	// The bucket starts with one deposit, so the first gap is a tick short.
	var sliced []int
	for tick := 1; tick <= 20; tick++ {
		before := m.Slices.Load()
		s.Tick()
		if m.Slices.Load() != before {
			sliced = append(sliced, tick)
		}
		if s.allowance > budget {
			t.Fatalf("tick %d: allowance %.0f over one second's budget", tick, s.allowance)
		}
	}
	if want := []int{1, 5, 10, 15, 20}; !slices.Equal(sliced, want) {
		t.Fatalf("slices ran at ticks %v, want %v", sliced, want)
	}

	// Idle: no views to verify, nothing charged, the bucket caps.
	e.mu.Lock()
	e.plan = nil
	e.mu.Unlock()
	for i := 0; i < 100; i++ {
		s.Tick()
	}
	if s.allowance != budget {
		t.Fatalf("allowance after an idle stretch = %.0f, want the one-second cap %d", s.allowance, budget)
	}
	// The burst the cap buys is one slice; the next waits two ticks.
	e.mu.Lock()
	e.plan = plan
	e.mu.Unlock()
	sliced = sliced[:0]
	for tick := 1; tick <= 3; tick++ {
		before := m.Slices.Load()
		s.Tick()
		if m.Slices.Load() != before {
			sliced = append(sliced, tick)
		}
	}
	if want := []int{1, 3}; !slices.Equal(sliced, want) {
		t.Fatalf("after the idle stretch slices ran at ticks %v, want %v", sliced, want)
	}
}
