package vtxn_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
)

// TestScrubBackgroundCleanRun drives commits against escrow, deferred, and
// stacked views with the background scrubber on a tight interval, and asserts
// it completes full cycles with zero divergences — the online twin of
// CheckConsistency agreeing with it under live traffic.
func TestScrubBackgroundCleanRun(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{ScrubInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name:        "branch_totals_deferred",
		Kind:        vtxn.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []vtxn.AggSpec{
			{Func: vtxn.AggCountRows},
			{Func: vtxn.AggSum, Arg: vtxn.Col(2)},
		},
		Strategy: vtxn.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
	seedAccounts(t, db, 16)

	// Concurrent writers keep folds landing while the scrubber verifies.
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tx, err := db.Begin(vtxn.ReadCommitted)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Update("accounts", vtxn.Row{vtxn.Int(int64((w*5 + i) % 16))},
					map[int]vtxn.Value{2: vtxn.Int(int64(100 + i))}); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := db.Metrics().Scrub
		if !s.Enabled {
			t.Fatal("scrubber not enabled despite ScrubInterval > 0")
		}
		if s.Divergences != 0 {
			t.Fatalf("background scrubber reported %d divergences on a healthy engine", s.Divergences)
		}
		if s.Cycles >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no full scrub cycle completed: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n, err := db.ScrubNow(context.Background()); err != nil || n != 0 {
		t.Fatalf("ScrubNow = %d, %v; want 0, nil", n, err)
	}
	s := db.Metrics().Scrub
	for _, v := range s.Views {
		if v.Passes == 0 || v.CoverageTS == 0 {
			t.Fatalf("view %q has no coverage after a full pass: %+v", v.View, v)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubDetectsCorruption corrupts one view row in place and asserts
// ScrubNow finds it with exact (view, group) attribution: counted globally,
// attributed per-view, traced, and flight-dumped.
func TestScrubDetectsCorruption(t *testing.T) {
	var sink bytes.Buffer
	rec := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		ScrubInterval: -1, // on-demand only: a background pass would race the assertions
		FlightSink:    &sink,
		Tracer:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 8)

	// Writers are quiesced; collapse version chains so the corrupted stored
	// row is what every snapshot resolves to.
	db.PruneVersions()
	if err := db.CorruptViewRow("branch_totals", vtxn.Row{vtxn.Int(1)}); err != nil {
		t.Fatal(err)
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
		if v.View == "branch_totals" {
			want = 1
		}
		if v.Divergences != want {
			t.Fatalf("view %q divergences = %d, want %d", v.View, v.Divergences, want)
		}
	}
	var ev vtxn.TraceEvent
	found := false
	for _, e := range rec.snapshot() {
		if e.Type == vtxn.TraceScrubDivergence {
			ev, found = e, true
		}
	}
	if !found {
		t.Fatal("no TraceScrubDivergence event emitted")
	}
	if ev.Resource != "branch_totals" || !strings.Contains(ev.Phase, "1") {
		t.Fatalf("divergence event misattributed: %+v", ev)
	}
	if !strings.Contains(ev.Outcome, "expected") || !strings.Contains(ev.Outcome, "actual") ||
		!strings.Contains(ev.Outcome, "lock path") {
		t.Fatalf("divergence event missing expected/actual/lock-path detail: %+v", ev)
	}
	if !strings.Contains(sink.String(), "scrub divergence") || !strings.Contains(sink.String(), "branch_totals") {
		t.Fatalf("flight record not dumped on divergence:\n%.400s", sink.String())
	}
}
