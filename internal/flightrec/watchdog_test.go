package flightrec

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// testWatchdog builds a watchdog over an empty baseline, so tests can drive
// evaluate/report with synthetic snapshots.
func testWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Snap == nil {
		cfg.Snap = func() metrics.Snapshot { return metrics.Snapshot{} }
	}
	return NewWatchdog(cfg)
}

func sigs(dets []detection) []string {
	out := make([]string, len(dets))
	for i, d := range dets {
		out[i] = d.sig
	}
	return out
}

func hasSig(dets []detection, sig string) bool {
	for _, d := range dets {
		if d.sig == sig {
			return true
		}
	}
	return false
}

func TestWatchdogWALFlushSignature(t *testing.T) {
	w := testWatchdog(WatchdogConfig{Interval: 250 * time.Millisecond})
	var prev, cur metrics.Snapshot

	cur.WAL.FlushActiveNs = int64(500 * time.Millisecond)
	if dets := w.evaluate(prev, cur); len(dets) != 0 {
		t.Fatalf("flush under threshold fired %v", sigs(dets))
	}
	cur.WAL.FlushActiveNs = int64(3 * time.Second)
	dets := w.evaluate(prev, cur)
	if !hasSig(dets, "wal-flush") {
		t.Fatalf("3s active flush not detected; got %v", sigs(dets))
	}
	for _, d := range dets {
		if d.sig == "wal-flush" && d.age != 3*time.Second {
			t.Errorf("wal-flush age = %s, want 3s", d.age)
		}
	}
}

func TestWatchdogLockConvoySignature(t *testing.T) {
	w := testWatchdog(WatchdogConfig{Interval: 250 * time.Millisecond})
	shard := func(ns ...int64) []metrics.LockShardSnapshot {
		out := make([]metrics.LockShardSnapshot, len(ns))
		for i, n := range ns {
			out[i].WaitNs = n
		}
		return out
	}
	var prev, cur metrics.Snapshot

	// Balanced wait growth across shards: no convoy even though the total is
	// large.
	prev.Lock.PerShard = shard(0, 0, 0, 0)
	cur.Lock.PerShard = shard(1e9, 1e9, 1e9, 1e9)
	if dets := w.evaluate(prev, cur); hasSig(dets, "lock-convoy") {
		t.Fatal("balanced wait growth misdetected as a convoy")
	}

	// One shard takes ~95% of the new wait time and more than the threshold.
	prev.Lock.PerShard = shard(0, 0, 0, 0)
	cur.Lock.PerShard = shard(4e9, 1e8, 5e7, 5e7)
	dets := w.evaluate(prev, cur)
	if !hasSig(dets, "lock-convoy") {
		t.Fatalf("dominant-shard wait growth not detected; got %v", sigs(dets))
	}
	for _, d := range dets {
		if d.sig == "lock-convoy" && !strings.Contains(d.detail, "shard 0") {
			t.Errorf("convoy detail does not name the hot shard: %q", d.detail)
		}
	}

	// A dominant but tiny delta (fast workload, one hot shard) must not fire.
	prev.Lock.PerShard = shard(0, 0, 0, 0)
	cur.Lock.PerShard = shard(1e8, 0, 0, 0)
	if dets := w.evaluate(prev, cur); hasSig(dets, "lock-convoy") {
		t.Fatal("sub-threshold dominant shard misdetected as a convoy")
	}
}

// TestWatchdogLockConvoyNamesHotGroup checks that when the hot-group sketch
// has attribution for the interval, the convoy detail names the actual
// (view, group key) — not just the stripe index.
func TestWatchdogLockConvoyNamesHotGroup(t *testing.T) {
	w := testWatchdog(WatchdogConfig{Interval: 250 * time.Millisecond})
	shard := func(ns ...int64) []metrics.LockShardSnapshot {
		out := make([]metrics.LockShardSnapshot, len(ns))
		for i, n := range ns {
			out[i].WaitNs = n
		}
		return out
	}
	var prev, cur metrics.Snapshot
	prev.Lock.PerShard = shard(0, 0)
	cur.Lock.PerShard = shard(4e9, 1e8)
	// Group "17" already had 1s of wait before the interval and gained 3s;
	// group "4" is new but gained only 0.5s. The detail must name "17" and
	// report its per-interval delta (3s), not its cumulative total (4s).
	prev.Hotspots.TopWait = []metrics.HotGroupSnapshot{
		{Tree: 5, View: "branch_totals", Key: "17", Value: 1e9},
	}
	cur.Hotspots.TopWait = []metrics.HotGroupSnapshot{
		{Tree: 5, View: "branch_totals", Key: "17", Value: 4e9},
		{Tree: 5, View: "branch_totals", Key: "4", Value: 5e8},
	}
	dets := w.evaluate(prev, cur)
	if !hasSig(dets, "lock-convoy") {
		t.Fatalf("convoy not detected; got %v", sigs(dets))
	}
	for _, d := range dets {
		if d.sig != "lock-convoy" {
			continue
		}
		if !strings.Contains(d.detail, "branch_totals[17]") {
			t.Errorf("convoy detail does not name the hot group: %q", d.detail)
		}
		if !strings.Contains(d.detail, "+3s wait") {
			t.Errorf("convoy detail does not carry the interval delta: %q", d.detail)
		}
	}

	// No group grew this interval (the sketch lags the shard counters): the
	// detail names the top of the listing with its total, not as a gain.
	prev.Hotspots.TopWait = cur.Hotspots.TopWait
	dets = testWatchdog(WatchdogConfig{Interval: 250 * time.Millisecond}).evaluate(prev, cur)
	if !hasSig(dets, "lock-convoy") {
		t.Fatalf("convoy not detected without sketch growth; got %v", sigs(dets))
	}
	for _, d := range dets {
		if d.sig != "lock-convoy" {
			continue
		}
		if !strings.Contains(d.detail, "hottest group branch_totals[17] (4s total wait)") {
			t.Errorf("convoy detail does not name the listing's top with its total: %q", d.detail)
		}
		if strings.Contains(d.detail, "+4s") {
			t.Errorf("convoy detail reports a total as an interval gain: %q", d.detail)
		}
	}

	// Without hot-group attribution the detail still names the stripe.
	prev.Hotspots.TopWait = nil
	cur.Hotspots.TopWait = nil
	w2 := testWatchdog(WatchdogConfig{Interval: 250 * time.Millisecond})
	dets = w2.evaluate(prev, cur)
	for _, d := range dets {
		if d.sig == "lock-convoy" && strings.Contains(d.detail, "hottest group") {
			t.Errorf("empty sketch still claimed a hottest group: %q", d.detail)
		}
	}
}

func TestWatchdogEscrowBacklogSignature(t *testing.T) {
	w := testWatchdog(WatchdogConfig{Windows: 3})
	snap := func(pending, folds int64) metrics.Snapshot {
		var s metrics.Snapshot
		s.Escrow.PendingRows = pending
		s.Escrow.FoldBatches = folds
		return s
	}

	// Growth with no folds must persist Windows intervals before firing.
	prev := snap(0, 10)
	for i := int64(1); i <= 2; i++ {
		cur := snap(i*100, 10)
		if dets := w.evaluate(prev, cur); hasSig(dets, "escrow-backlog") {
			t.Fatalf("fired after only %d interval(s)", i)
		}
		prev = cur
	}
	dets := w.evaluate(prev, snap(300, 10))
	if !hasSig(dets, "escrow-backlog") {
		t.Fatalf("3-interval backlog growth not detected; got %v", sigs(dets))
	}

	// A fold resets the streak.
	w2 := testWatchdog(WatchdogConfig{Windows: 3})
	w2.evaluate(snap(0, 10), snap(100, 10))
	w2.evaluate(snap(100, 10), snap(200, 10))
	w2.evaluate(snap(200, 10), snap(300, 11)) // fold happened
	if dets := w2.evaluate(snap(300, 11), snap(400, 11)); hasSig(dets, "escrow-backlog") {
		t.Fatal("streak not reset by an intervening fold")
	}
}

func TestWatchdogGhostStarvationSignature(t *testing.T) {
	w := testWatchdog(WatchdogConfig{Windows: 2})
	snap := func(backlog, passes int64) metrics.Snapshot {
		var s metrics.Snapshot
		s.Ghost.Backlog = backlog
		s.Ghost.CleanerPasses = passes
		return s
	}
	if dets := w.evaluate(snap(0, 5), snap(50, 5)); hasSig(dets, "ghost-starvation") {
		t.Fatal("fired after one interval with Windows=2")
	}
	dets := w.evaluate(snap(50, 5), snap(50, 5))
	if !hasSig(dets, "ghost-starvation") {
		t.Fatalf("persistent backlog with idle cleaner not detected; got %v", sigs(dets))
	}
	// A cleaner pass re-arms the streak even if backlog remains.
	if dets := w.evaluate(snap(50, 5), snap(40, 6)); hasSig(dets, "ghost-starvation") {
		t.Fatal("streak not reset by a cleaner pass")
	}
}

// TestWatchdogScrubDivergenceSignature: any growth in the scrubber's
// divergence counter fires immediately (no streak — a broken invariant is not
// a trend), naming the view whose per-view count grew the most.
func TestWatchdogScrubDivergenceSignature(t *testing.T) {
	var wm metrics.WatchdogMetrics
	w := testWatchdog(WatchdogConfig{Metrics: &wm})
	snap := func(total int64, views ...metrics.ViewScrubSnapshot) metrics.Snapshot {
		var s metrics.Snapshot
		s.Scrub.Divergences = total
		s.Scrub.Views = views
		return s
	}
	// Flat counter: nothing fires.
	if dets := w.evaluate(snap(2), snap(2)); hasSig(dets, "scrub-divergence") {
		t.Fatal("flat divergence counter fired")
	}
	// Growth fires at once and names the worst view.
	prev := snap(2,
		metrics.ViewScrubSnapshot{Tree: 1, View: "ok", Divergences: 0},
		metrics.ViewScrubSnapshot{Tree: 2, View: "bad", Divergences: 2})
	cur := snap(7,
		metrics.ViewScrubSnapshot{Tree: 1, View: "ok", Divergences: 1},
		metrics.ViewScrubSnapshot{Tree: 2, View: "bad", Divergences: 6})
	dets := w.evaluate(prev, cur)
	if !hasSig(dets, "scrub-divergence") {
		t.Fatalf("divergence growth not detected; got %v", sigs(dets))
	}
	for _, d := range dets {
		if d.sig == "scrub-divergence" && !strings.Contains(d.detail, `view "bad": 4`) {
			t.Errorf("detail does not name the worst view: %q", d.detail)
		}
	}
	// The counter routes to the dedicated metric.
	w.report(dets)
	if got := wm.ScrubDivergences.Load(); got != 1 {
		t.Fatalf("scrub_divergences = %d, want 1", got)
	}
}

// TestWatchdogReportEdgeTriggered: a persisting condition is reported once at
// onset; after it clears, the next onset reports again.
func TestWatchdogReportEdgeTriggered(t *testing.T) {
	var wm metrics.WatchdogMetrics
	var sink bytes.Buffer
	rec := New(Config{Sink: &sink, MinDumpGap: time.Nanosecond})
	next := &capture{}
	rec2 := New(Config{Next: next}) // tracer target for stall events
	w := testWatchdog(WatchdogConfig{Metrics: &wm, Tracer: rec2, Recorder: rec})

	d := detection{sig: "wal-flush", detail: "flush active 3s", age: 3 * time.Second}
	w.report([]detection{d})
	w.report([]detection{d}) // still firing: no second report
	if got := wm.Detections.Load(); got != 1 {
		t.Fatalf("persisting stall counted %d times, want 1", got)
	}
	if got := wm.WALStalls.Load(); got != 1 {
		t.Fatalf("wal_stalls = %d, want 1", got)
	}
	stalls := 0
	for _, e := range next.events() {
		if e.Type == metrics.EventStall {
			stalls++
			if e.Phase != "wal-flush" || e.Dur != 3*time.Second {
				t.Errorf("stall event mismatch: %+v", e)
			}
		}
	}
	if stalls != 1 {
		t.Fatalf("emitted %d EventStall, want 1", stalls)
	}
	if !strings.Contains(sink.String(), "watchdog stall: wal-flush") {
		t.Errorf("recorder dump missing the stall reason:\n%s", sink.String())
	}

	w.report(nil)            // condition cleared: re-arm
	w.report([]detection{d}) // new onset
	if got := wm.Detections.Load(); got != 2 {
		t.Fatalf("re-onset after clear counted %d total, want 2", got)
	}
}

// TestWatchdogTickBaseline: NewWatchdog takes its baseline at once, so a
// counter edge between construction and the first Tick still fires; each Tick
// then diffs against the previous one, so a flat counter does not fire again.
func TestWatchdogTickBaseline(t *testing.T) {
	var wm metrics.WatchdogMetrics
	var cur metrics.Snapshot
	snaps := 0
	w := NewWatchdog(WatchdogConfig{
		Interval: time.Second,
		Metrics:  &wm,
		Snap: func() metrics.Snapshot {
			snaps++
			return cur
		},
	})
	if snaps != 1 {
		t.Fatalf("NewWatchdog took %d snapshots, want the baseline alone", snaps)
	}
	cur.Scrub.Divergences = 1 // the edge lands before the first Tick
	w.Tick()
	if got := wm.ScrubDivergences.Load(); got != 1 {
		t.Fatalf("edge before the first Tick: scrub_divergences = %d, want 1", got)
	}
	w.Tick()
	w.Tick()
	if got := wm.Detections.Load(); got != 1 {
		t.Fatalf("flat counter after the edge: detections = %d, want 1", got)
	}
	cur.Scrub.Divergences = 3 // a new edge after the signature cleared
	w.Tick()
	if got := wm.ScrubDivergences.Load(); got != 2 {
		t.Fatalf("second edge: scrub_divergences = %d, want 2", got)
	}
	if snaps != 5 {
		t.Fatalf("%d snapshots, want one per Tick plus the baseline", snaps)
	}
}

// TestWatchdogTickStallThreshold: the WAL-flush signature's threshold is four
// intervals — a flush active for three does not fire, one active for five
// does.
func TestWatchdogTickStallThreshold(t *testing.T) {
	var wm metrics.WatchdogMetrics
	var cur metrics.Snapshot
	w := NewWatchdog(WatchdogConfig{
		Interval: 10 * time.Millisecond,
		Metrics:  &wm,
		Snap:     func() metrics.Snapshot { return cur },
	})
	cur.WAL.FlushActiveNs = int64(30 * time.Millisecond)
	w.Tick()
	if got := wm.WALStalls.Load(); got != 0 {
		t.Fatalf("flush active 3 intervals fired %d stalls", got)
	}
	cur.WAL.FlushActiveNs = int64(50 * time.Millisecond)
	w.Tick()
	if got := wm.WALStalls.Load(); got != 1 {
		t.Fatalf("flush active 5 intervals: wal_stalls = %d, want 1", got)
	}
}
