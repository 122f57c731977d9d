package vtxn_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/flightrec"
	"repro/internal/workload"
)

// TestHotGroupAgreement is the acceptance check for hot-spot attribution:
// under a Zipf(1.1)-skewed escrow workload the true hottest view group must
// be the top escrow heavy hitter in DB.Metrics() within the Space-Saving
// error bound and a labelled series of the Prometheus endpoint, and a lock
// convoy's stall report (EventStall detail and the flight-recorder auto-dump)
// must name the same group that tops the lock-wait listing. The third
// surface, the vtxnshell top dashboard, renders the same DB.Metrics()
// snapshot and is checked against its own skewed workload in cmd/vtxnshell's
// TestShellTop.
func TestHotGroupAgreement(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)

	// Phase 1: Zipf-skewed inserts with client-side truth counting.
	const (
		groups  = 64
		writers = 4
		perW    = 200
	)
	truth := make([]int64, groups)
	var truthMu sync.Mutex
	var idMu sync.Mutex
	var ids int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			pick := workload.Zipf(rng, 1.1, groups)
			local := make([]int64, groups)
			for i := 0; i < perW; i++ {
				branch := pick()
				idMu.Lock()
				ids++
				id := ids
				idMu.Unlock()
				tx, err := db.Begin(vtxn.ReadCommitted)
				if err != nil {
					t.Error(err)
					return
				}
				if err := tx.Insert("accounts", vtxn.Row{
					vtxn.Int(id), vtxn.Int(int64(branch)), vtxn.Int(10),
				}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
				local[branch]++
			}
			truthMu.Lock()
			for g, n := range local {
				truth[g] += n
			}
			truthMu.Unlock()
		}(int64(w + 1))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	hottest, hottestN := 0, int64(0)
	for g, n := range truth {
		if n > hottestN {
			hottest, hottestN = g, n
		}
	}

	snap := db.Metrics()
	if len(snap.Hotspots.TopDelta) == 0 {
		t.Fatal("hotspots.top_delta is empty after the skewed workload")
	}
	top := snap.Hotspots.TopDelta[0]
	if top.View != "branch_totals" || top.Key != fmt.Sprintf("%d", hottest) {
		t.Fatalf("top_delta[0] = %s[%s], want branch_totals[%d] (true count %d)",
			top.View, top.Key, hottest, hottestN)
	}
	// Space-Saving bounds, in the sketch's unit of one escrow cell update:
	// an insert lands four on its group row (the hidden group counter, the
	// COUNT(*) cell, and SUM's non-NULL count and running sum). The estimate
	// never undercounts, and the estimate less its error never overcounts.
	trueDeltas := hottestN * 4
	if top.Value < trueDeltas || top.Value-top.Err > trueDeltas {
		t.Fatalf("Space-Saving bound violated: estimate %d, error %d, true %d", top.Value, top.Err, trueDeltas)
	}
	if len(snap.Hotspots.Views) == 0 {
		t.Fatal("hotspots.views is empty")
	}
	if vc := snap.Hotspots.Views[0]; vc.View != "branch_totals" || vc.RowsFolded <= 0 || vc.FoldNs <= 0 || vc.WALBytes <= 0 {
		t.Fatalf("view cost table lacks fold and WAL accounting: %+v", vc)
	}
	if snap.Engine.UptimeNs <= 0 || snap.Engine.SnapshotUnixNs <= 0 {
		t.Fatalf("snapshot clock missing: uptime %d, ts %d", snap.Engine.UptimeNs, snap.Engine.SnapshotUnixNs)
	}

	// The Prometheus endpoint names the same group as a labelled series.
	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		fmt.Sprintf(`vtxn_hot_group_escrow_deltas_total{view="branch_totals",key="%d"}`, hottest),
		`vtxn_view_fold_rows_total{view="branch_totals"}`,
		"vtxn_uptime_seconds",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("Prometheus exposition lacks %s", series)
		}
	}

	// Phase 2: a lock convoy on one hot row. A dedicated watchdog (tight
	// intervals, same DB.Metrics feed as the engine's own) must name the
	// group that tops the lock-wait listing, in both the EventStall detail
	// and the flight-recorder auto-dump.
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", vtxn.Row{vtxn.Int(1_000_000), vtxn.Int(0), vtxn.Int(10)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var dump bytes.Buffer
	rec := flightrec.New(flightrec.Config{Sink: &dump, MinDumpGap: time.Millisecond})
	tracer := &recordingTracer{}
	wd := flightrec.StartWatchdog(flightrec.WatchdogConfig{
		Interval:       25 * time.Millisecond,
		StallThreshold: 10 * time.Millisecond,
		Snap:           db.Metrics,
		Tracer:         tracer,
		Recorder:       rec,
	})
	stopWd := sync.OnceFunc(wd.Close)
	defer stopWd()

	before := db.Metrics()
	holder, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Rollback()
	if err := holder.Update("accounts", vtxn.Row{vtxn.Int(1_000_000)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
		t.Fatal(err)
	}
	waiter, err := db.BeginTx(t.Context(), vtxn.TxOptions{
		Isolation:   vtxn.ReadCommitted,
		LockTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Rollback()
	if err := waiter.Update("accounts", vtxn.Row{vtxn.Int(1_000_000)}, map[int]vtxn.Value{2: vtxn.Int(2)}); err == nil {
		t.Fatal("expected the convoyed wait to time out")
	}

	var stall vtxn.TraceEvent
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, e := range tracer.snapshot() {
			if e.Type == vtxn.TraceStall && e.Phase == "lock-convoy" {
				stall, found = e, true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watchdog never reported a lock convoy; events: %+v", tracer.snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Stop the watchdog before inspecting the dump buffer it writes to.
	stopWd()

	// The convoy's group is the one whose wait grew most across the convoy:
	// compare the listing after it with the one before it, like the watchdog
	// does per interval. (The cumulative head of the listing may be a key the
	// four phase-1 inserters queued on — on a slow machine they out-wait the
	// convoy's 100ms.)
	gained := map[string]int64{}
	for _, g := range db.Metrics().Hotspots.TopWait {
		gained[g.View+"["+g.Key+"]"] = g.Value
	}
	for _, g := range before.Hotspots.TopWait {
		gained[g.View+"["+g.Key+"]"] -= g.Value
	}
	wait, most := "", int64(0)
	for g, ns := range gained {
		if ns > most {
			wait, most = g, ns
		}
	}
	if wait != "accounts[1000000]" {
		t.Fatalf("group that gained the most lock wait across the convoy = %q (%v), want accounts[1000000]", wait, gained)
	}
	needle := "hottest group " + wait
	if !strings.Contains(stall.Resource, needle) {
		t.Fatalf("convoy stall detail %q does not name %q", stall.Resource, needle)
	}
	if !strings.Contains(dump.String(), needle) {
		t.Fatalf("flight-recorder auto-dump does not name %q:\n%s", needle, dump.String())
	}
}
