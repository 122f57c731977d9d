package vtxn_test

import (
	"context"
	"encoding/hex"
	"fmt"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/fault"
	"repro/internal/record"
	"repro/internal/workload"
)

// TestScrubBackgroundCleanRun runs a tilt storm under the background
// scrubber on a tight, unpaced interval, over a catalog with all three of its
// snapshot-selection classes: an immediate escrow view (single pin), the
// deferred root of the rollup chain (watermark pair), and the stacked deferred
// levels (co-atomic with their source). The scrubber must stay silent while
// the writers run, complete full cycles, and after a drain pass cleanly over
// every view with coverage past the quiesce point — the online twin of
// CheckConsistency, which must agree view by view. The long run (no -short)
// is the soak: 8000 tilting commits instead of 200.
func TestScrubBackgroundCleanRun(t *testing.T) {
	tilts := 2000
	if testing.Short() {
		tilts = 50
	}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		ScrubInterval:    time.Millisecond,
		ScrubRowBudget:   -1, // unpaced: the test wants cycles, not realism
		WatchdogInterval: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupItemChain(t, db, vtxn.StrategyDeferred)
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "amount_by_region", Kind: vtxn.ViewAggregate, Source: "order_items",
		GroupBy: []string{"region"},
		Aggs:    []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("amount")},
	}); err != nil {
		t.Fatal(err)
	}
	views := append([]string{"amount_by_region"}, rollupChain...)

	storm := startTilts(t, db, "order_items", amountCol, itemLevel, tilts)
	done := make(chan struct{})
	go func() { storm.wait(); close(done) }()
	for storming := true; storming; {
		select {
		case <-done:
			storming = false
		case <-time.After(2 * time.Millisecond):
		}
		if n := db.Metrics().Scrub.Divergences; n != 0 {
			storm.halt()
			t.Fatalf("scrubber reported %d divergences mid-storm on a healthy engine", n)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		s := db.Metrics().Scrub
		if !s.Enabled {
			t.Fatal("scrubber not enabled despite ScrubInterval > 0")
		}
		if s.Cycles >= 2 {
			if s.Slices == 0 || s.RowsVerified == 0 {
				t.Fatalf("scrubber cycled without verifying anything: %+v", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no two full scrub cycles completed: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}

	wm := db.Metrics().MVCC.Watermark
	drainTo(t, db, rollupChain[len(rollupChain)-1], wm)
	if n, err := db.ScrubNow(context.Background()); err != nil || n != 0 {
		t.Fatalf("ScrubNow = %d, %v; want 0, nil", n, err)
	}
	m := db.Metrics()
	if m.Scrub.Divergences != 0 || m.Watchdog.ScrubDivergences != 0 {
		t.Fatalf("divergence counters on a healthy engine: scrub %d, watchdog %d",
			m.Scrub.Divergences, m.Watchdog.ScrubDivergences)
	}
	covered := map[string]bool{}
	for _, v := range m.Scrub.Views {
		covered[v.View] = true
		if v.Passes == 0 || v.CoverageTS < wm || v.Divergences != 0 {
			t.Fatalf("view %q: %d passes, coverage ts %d (quiesced at %d), %d divergences",
				v.View, v.Passes, v.CoverageTS, wm, v.Divergences)
		}
	}
	for _, v := range views {
		if !covered[v] {
			t.Fatalf("scrub metrics lack view %q: %+v", v, m.Scrub.Views)
		}
	}
	var checked atomic.Int32
	if err := db.CheckConsistencyCtx(context.Background(), func(vtxn.CheckProgress) { checked.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if int(checked.Load()) != len(views) {
		t.Fatalf("CheckConsistencyCtx checked %d views, want %d", checked.Load(), len(views))
	}
}

// corruptHooks counts hits on the view-corruption fault point, so a test
// knows the corruption went through the engine's fault plane.
type corruptHooks struct{ hits atomic.Int64 }

func (h *corruptHooks) Hit(p fault.Point) error {
	if p == fault.PointViewCorrupt {
		h.hits.Add(1)
	}
	return nil
}

// TestScrubDetectsCorruption corrupts one view row in place, underneath the
// WAL and the lock manager, and asserts the next full pass finds it with
// exact (view, group) attribution: counted globally, attributed per view,
// traced with expected and actual values, flight-dumped, and reported by the
// watchdog's scrub-divergence signature. It runs once on an escrow view and
// once on the top of the deferred rollup chain.
func TestScrubDetectsCorruption(t *testing.T) {
	cases := []struct {
		name  string
		setup func(*testing.T, *vtxn.DB)
		view  string
		key   vtxn.Row
		group string // the group as the divergence event prints it
	}{
		{
			name: "escrow view",
			setup: func(t *testing.T, db *vtxn.DB) {
				setupPublic(t, db)
				seedAccounts(t, db, 8)
			},
			view: "branch_totals", key: vtxn.Row{vtxn.Int(1)}, group: "1",
		},
		{
			name:  "stacked deferred view",
			setup: func(t *testing.T, db *vtxn.DB) { setupItemChain(t, db, vtxn.StrategyDeferred) },
			view:  workload.RollupL2, key: vtxn.Row{vtxn.Str("region-00")}, group: "region-00",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &lockedBuffer{}
			rec := &recordingTracer{}
			hooks := &corruptHooks{}
			db, err := vtxn.Open(t.TempDir(), vtxn.Options{
				ScrubInterval:    -1, // on-demand only: the pass must find it, not luck
				WatchdogInterval: 10 * time.Millisecond,
				Hooks:            hooks,
				FlightSink:       sink,
				Tracer:           rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			tc.setup(t, db)

			// Writers are quiesced; collapse version chains so the corrupted
			// stored row is what every snapshot resolves to.
			db.PruneVersions()
			if err := db.CorruptViewRow(tc.view, tc.key); err != nil {
				t.Fatal(err)
			}
			if n := hooks.hits.Load(); n != 1 {
				t.Fatalf("corruption fault point hit %d times, want 1", n)
			}

			// The offline checker must catch the same row; its report is
			// matched against the scrubber's event below.
			checkErr := db.CheckConsistency()
			if checkErr == nil {
				t.Fatal("CheckConsistency passed a corrupted view row")
			}

			n, err := db.ScrubNow(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("ScrubNow found %d divergences, want exactly 1", n)
			}
			s := db.Metrics().Scrub
			if s.Divergences != 1 {
				t.Fatalf("scrub.divergences = %d, want 1", s.Divergences)
			}
			for _, v := range s.Views {
				want := int64(0)
				if v.View == tc.view {
					want = 1
				}
				if v.Divergences != want {
					t.Fatalf("view %q divergences = %d, want %d", v.View, v.Divergences, want)
				}
			}
			var evs []vtxn.TraceEvent
			for _, e := range rec.snapshot() {
				if e.Type == vtxn.TraceScrubDivergence {
					evs = append(evs, e)
				}
			}
			if len(evs) != 1 {
				t.Fatalf("%d TraceScrubDivergence events, want 1", len(evs))
			}
			if ev := evs[0]; ev.Resource != tc.view || !strings.Contains(ev.Phase, tc.group) {
				t.Fatalf("divergence event misattributed: %+v", ev)
			} else if !strings.Contains(ev.Outcome, "expected") || !strings.Contains(ev.Outcome, "actual") ||
				!strings.Contains(ev.Outcome, "lock path") {
				t.Fatalf("divergence event missing expected/actual/lock-path detail: %+v", ev)
			}
			// Both checkers render one verify.Diff: the same view, the same
			// group key and the same expected and actual values.
			ev, msg := evs[0], checkErr.Error()
			if !strings.Contains(msg, fmt.Sprintf("view %q", ev.Resource)) {
				t.Fatalf("CheckConsistency names another view than the scrubber's %q: %s", ev.Resource, msg)
			}
			if m := regexp.MustCompile(`key ([0-9a-f]+):`).FindStringSubmatch(msg); m == nil {
				t.Fatalf("CheckConsistency error names no key: %s", msg)
			} else if raw, err := hex.DecodeString(m[1]); err != nil {
				t.Fatal(err)
			} else if key, err := record.DecodeKey(raw); err != nil || len(key) != 1 || key[0].String() != ev.Phase ||
				record.CompareRows(key, tc.key) != 0 {
				t.Fatalf("CheckConsistency key %s (%v, err %v), scrubber group %s, corrupted %v", m[1], key, err, ev.Phase, tc.key)
			}
			stored := regexp.MustCompile(`stored (\([^)]*\)), recompute (\([^)]*\))$`).FindStringSubmatch(msg)
			traced := regexp.MustCompile(`^expected (\([^)]*\)), actual (\([^)]*\)),`).FindStringSubmatch(ev.Outcome)
			if stored == nil || traced == nil || stored[1] != traced[2] || stored[2] != traced[1] {
				t.Fatalf("the checkers disagree on the values:\n check: %s\n scrub: %s", msg, ev.Outcome)
			}
			dump := sink.String()
			if !strings.Contains(dump, "scrub divergence") || !strings.Contains(dump, tc.view) || !strings.Contains(dump, tc.group) {
				t.Fatalf("flight record not dumped naming the row:\n%.400s", dump)
			}

			// The watchdog's scrub-divergence signature fires off the
			// counter on its next poll. Its own dump is rate-limited away
			// behind the detection-time one, so the stall event is what is
			// left to assert.
			deadline := time.Now().Add(10 * time.Second)
			for db.Metrics().Watchdog.ScrubDivergences == 0 {
				if time.Now().After(deadline) {
					t.Fatal("watchdog never fired the scrub-divergence signature")
				}
				time.Sleep(5 * time.Millisecond)
			}
			for _, e := range rec.snapshot() {
				if e.Type == vtxn.TraceStall && e.Phase == "scrub-divergence" && strings.Contains(e.Resource, tc.view) {
					return
				}
			}
			t.Fatalf("no scrub-divergence stall event names %q", tc.view)
		})
	}
}
