package flightrec

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// WatchdogConfig configures a stall watchdog.
type WatchdogConfig struct {
	// Interval is the period the caller calls Tick at; it must be positive.
	// An in-progress condition older than stallIntervals of it counts as a
	// stall (WAL flush age, one-stripe wait-time slope).
	Interval time.Duration
	// Windows is how many consecutive intervals a growth signature (escrow
	// backlog, ghost starvation) must persist; zero selects 3.
	Windows int
	// FreshnessSLO, when positive, arms the freshness-slo signature: any view
	// whose current staleness exceeds it fires a detection naming the lagging
	// view (and auto-dumps the linked trace via Recorder).
	FreshnessSLO time.Duration
	// Snap samples the engine (DB.Metrics).
	Snap func() metrics.Snapshot
	// Tracer receives EventStall on each detection onset (normally the flight
	// recorder, which forwards down the chain); may be nil.
	Tracer metrics.Tracer
	// Recorder, when non-nil and configured with a sink, is triggered to dump
	// on each detection onset.
	Recorder *Recorder
	// Metrics receives detection counts; may be nil.
	Metrics *metrics.WatchdogMetrics
}

// stallIntervals is the stall threshold in watchdog intervals.
const stallIntervals = 4

// Watchdog diffs engine metrics snapshots, one per Tick, and reports stall
// signatures: a WAL flush not advancing while commits queue, a lock-shard
// convoy, escrow fold backlog growth, and ghost-cleaner starvation.
// Detections are edge-triggered — one report per onset, re-armed once the
// condition clears. Tick is not safe for concurrent use.
type Watchdog struct {
	cfg WatchdogConfig

	// prev is the previous snapshot: at first the baseline, captured by
	// NewWatchdog so no counter edge predates it.
	prev metrics.Snapshot

	// report's firing set and evaluate's growth streaks.
	active       map[string]bool
	escrowStreak int
	ghostStreak  int
}

// detection is one stall signature currently firing.
type detection struct {
	sig    string // "wal-flush", "lock-convoy", "escrow-backlog", "ghost-starvation", "freshness-slo", "scrub-divergence"
	detail string
	age    time.Duration
}

// NewWatchdog returns a watchdog holding its baseline snapshot. The baseline
// is taken here, synchronously, not at the first Tick: counters that move
// before the first Tick would otherwise be folded into the baseline and
// their edge lost. For the stall signatures that only shifts a window
// boundary, but for the scrub-divergence counter the edge IS the signal — a
// divergence found microseconds after Open must still fire.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Windows <= 0 {
		cfg.Windows = 3
	}
	return &Watchdog{cfg: cfg, prev: cfg.Snap(), active: make(map[string]bool)}
}

// Tick takes a snapshot, reports the signatures firing since the previous
// one, and keeps it as the next baseline.
func (w *Watchdog) Tick() {
	cur := w.cfg.Snap()
	w.report(w.evaluate(w.prev, cur))
	w.prev = cur
}

// report emits each detection whose signature was not already active, and
// re-arms signatures that cleared.
func (w *Watchdog) report(dets []detection) {
	firing := make(map[string]bool, len(dets))
	for _, d := range dets {
		firing[d.sig] = true
		if w.active[d.sig] {
			continue
		}
		w.active[d.sig] = true
		w.count(d.sig)
		if w.cfg.Tracer != nil {
			w.cfg.Tracer.TraceEvent(metrics.Event{
				Type:     metrics.EventStall,
				Phase:    d.sig,
				Resource: d.detail,
				Dur:      d.age,
			})
		}
		if w.cfg.Recorder != nil {
			w.cfg.Recorder.Trigger("watchdog stall: " + d.sig + " — " + d.detail)
		}
	}
	for sig := range w.active {
		if !firing[sig] {
			delete(w.active, sig)
		}
	}
}

func (w *Watchdog) count(sig string) {
	m := w.cfg.Metrics
	if m == nil {
		return
	}
	m.Detections.Add(1)
	switch sig {
	case "wal-flush":
		m.WALStalls.Add(1)
	case "lock-convoy":
		m.LockConvoys.Add(1)
	case "escrow-backlog":
		m.EscrowStalls.Add(1)
	case "ghost-starvation":
		m.GhostStalls.Add(1)
	case "freshness-slo":
		m.FreshnessBreaches.Add(1)
	case "scrub-divergence":
		m.ScrubDivergences.Add(1)
	}
}

// evaluate diffs two consecutive snapshots and returns the stall signatures
// currently firing. It owns the streak counters for the growth signatures.
func (w *Watchdog) evaluate(prev, cur metrics.Snapshot) []detection {
	var dets []detection
	threshold := stallIntervals * w.cfg.Interval

	// 1. WAL flush stall: a physical flush has been in progress longer than
	// the threshold — commits queue behind it on the flush mutex.
	if age := time.Duration(cur.WAL.FlushActiveNs); age > threshold {
		queued := cur.WAL.Appends - cur.WAL.BatchRecords
		dets = append(dets, detection{
			sig:    "wal-flush",
			detail: fmt.Sprintf("group-commit flush active %s with %d unflushed appends", age.Round(time.Millisecond), queued),
			age:    age,
		})
	}

	// 2. Lock-shard convoy: one stripe accumulated the dominant share (≥75%)
	// of new wait time this interval, and at least the threshold's worth —
	// multiple waiters piled on one stripe's resources.
	if n := len(cur.Lock.PerShard); n > 0 && n == len(prev.Lock.PerShard) {
		var total, maxDelta int64
		maxShard := -1
		for i := range cur.Lock.PerShard {
			d := cur.Lock.PerShard[i].WaitNs - prev.Lock.PerShard[i].WaitNs
			total += d
			if d > maxDelta {
				maxDelta, maxShard = d, i
			}
		}
		if maxDelta >= int64(threshold) && maxDelta*4 >= total*3 {
			detail := fmt.Sprintf("lock shard %d accumulated %s of %s total wait time this interval",
				maxShard, time.Duration(maxDelta).Round(time.Millisecond), time.Duration(total).Round(time.Millisecond))
			// Name the culprit: the hot-group sketch says which (view, group
			// key) gained the most wait this interval, turning "a stripe is
			// hot" into an actionable key.
			g, ok := hottestWaitGroup(prev.Hotspots.TopWait, cur.Hotspots.TopWait)
			if !ok && len(cur.Hotspots.TopWait) > 0 {
				// A snapshot reads the shard counters and the sketch a moment
				// apart: a wait resolving in between shows in this interval's
				// shard delta but in the previous interval's sketch. Name the
				// group that tops the listing instead of nobody.
				g, ok = cur.Hotspots.TopWait[0], true
			}
			if ok {
				detail += fmt.Sprintf("; hottest group %s[%s] +%s wait",
					g.View, g.Key, time.Duration(g.Value).Round(time.Millisecond))
			}
			dets = append(dets, detection{
				sig:    "lock-convoy",
				detail: detail,
				age:    w.cfg.Interval,
			})
		}
	}

	// 3. Escrow fold backlog: pending-delta rows keep growing while no commit
	// folds them, for Windows consecutive intervals.
	if cur.Escrow.PendingRows > prev.Escrow.PendingRows &&
		cur.Escrow.FoldBatches == prev.Escrow.FoldBatches {
		w.escrowStreak++
	} else {
		w.escrowStreak = 0
	}
	if w.escrowStreak >= w.cfg.Windows {
		dets = append(dets, detection{
			sig: "escrow-backlog",
			detail: fmt.Sprintf("%d view rows with unfolded deltas, growing for %d intervals with no folds",
				cur.Escrow.PendingRows, w.escrowStreak),
			age: time.Duration(w.escrowStreak) * w.cfg.Interval,
		})
	}

	// 4. Ghost-cleaner starvation: a ghost backlog persists while the cleaner
	// makes no passes, for Windows consecutive intervals.
	if cur.Ghost.Backlog > 0 && cur.Ghost.CleanerPasses == prev.Ghost.CleanerPasses {
		w.ghostStreak++
	} else {
		w.ghostStreak = 0
	}
	if w.ghostStreak >= w.cfg.Windows {
		dets = append(dets, detection{
			sig: "ghost-starvation",
			detail: fmt.Sprintf("%d ghost rows pending with no cleaner pass for %d intervals",
				cur.Ghost.Backlog, w.ghostStreak),
			age: time.Duration(w.ghostStreak) * w.cfg.Interval,
		})
	}

	// 5. Freshness SLO breach: some view's current staleness exceeds the
	// configured bound — the deferred pipeline is not keeping the promise.
	// Level-triggered input, edge-triggered reporting like every signature:
	// one detection per onset, naming the worst-lagging view.
	if slo := w.cfg.FreshnessSLO; slo > 0 {
		var worst metrics.ViewFreshnessSnapshot
		for _, v := range cur.Freshness.Views {
			if v.StalenessNs > worst.StalenessNs {
				worst = v
			}
		}
		if age := time.Duration(worst.StalenessNs); age > slo {
			dets = append(dets, detection{
				sig: "freshness-slo",
				detail: fmt.Sprintf("view %q staleness %s exceeds SLO %s (watermark lagging)",
					worst.View, age.Round(time.Millisecond), slo),
				age: age,
			})
		}
	}

	// 6. Scrub divergence: the online scrubber confirmed stored view rows
	// disagreeing with a recompute — a broken invariant, not a performance
	// stall. The counter delta carries the edge; the detail names the view
	// whose per-view count grew the most this interval.
	if d := cur.Scrub.Divergences - prev.Scrub.Divergences; d > 0 {
		prevByTree := make(map[uint32]int64, len(prev.Scrub.Views))
		for _, v := range prev.Scrub.Views {
			prevByTree[v.Tree] = v.Divergences
		}
		var worst metrics.ViewScrubSnapshot
		var worstDelta int64
		for _, v := range cur.Scrub.Views {
			if vd := v.Divergences - prevByTree[v.Tree]; vd > worstDelta {
				worstDelta, worst = vd, v
			}
		}
		detail := fmt.Sprintf("%d view rows diverged from recompute this interval", d)
		if worstDelta > 0 {
			detail = fmt.Sprintf("view %q: %d of %s", worst.View, worstDelta, detail)
		}
		dets = append(dets, detection{sig: "scrub-divergence", detail: detail, age: w.cfg.Interval})
	}

	return dets
}

// hottestWaitGroup returns the hot group that gained the most lock wait
// between two snapshots' heavy-hitter listings (matched by tree+key; a group
// new to cur counts from zero). Returned Value is the interval's wait-ns
// delta, not the cumulative estimate.
func hottestWaitGroup(prev, cur []metrics.HotGroupSnapshot) (metrics.HotGroupSnapshot, bool) {
	type gk struct {
		tree uint32
		key  string
	}
	pv := make(map[gk]int64, len(prev))
	for _, p := range prev {
		pv[gk{p.Tree, p.Key}] = p.Value
	}
	var best metrics.HotGroupSnapshot
	var bestDelta int64
	for _, c := range cur {
		d := c.Value - pv[gk{c.Tree, c.Key}]
		if d > bestDelta {
			bestDelta = d
			best = c
			best.Value = d
		}
	}
	return best, bestDelta > 0
}
