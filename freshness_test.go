package vtxn_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// createDeferredTotals defines a deferred aggregate view over accounts.
func createDeferredTotals(t *testing.T, db *vtxn.DB, name string) {
	t.Helper()
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: name, Kind: vtxn.ViewAggregate,
		Source:   "accounts",
		GroupBy:  []string{"branch"},
		Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
		Strategy: vtxn.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFlightRecordLinksDeferredMaintenance is the tracing tentpole's unit
// acceptance: one committing transaction's causal span crosses the async
// deferred-maintenance boundary — the commit's deferred-publish resolves to
// the transaction's span, and both the applier's fold and the watermark
// advance that made the commit visible carry that span in their multi-parent
// spans list.
func TestFlightRecordLinksDeferredMaintenance(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	createDeferredTotals(t, db, "branch_totals_deferred")
	seedAccounts(t, db, 4)

	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(777)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := db.WaitForViewWatermark(ctx, "branch_totals_deferred", tx.CommitTS()); err != nil {
		t.Fatal(err)
	}

	links := traceLinks(t, db, "branch_totals_deferred", uint64(tx.ID()))
	if links.commitSpan == 0 {
		t.Fatal("committing transaction has no tx-begin span in the flight record")
	}
	if links.publishSpan != links.commitSpan {
		t.Fatalf("deferred-publish span %d != commit span %d — the publish is not causally linked", links.publishSpan, links.commitSpan)
	}
	if !links.applied["branch_totals_deferred"] {
		t.Fatal("no deferred-apply event carries the originating commit's span")
	}
	if !links.advanced["branch_totals_deferred"] {
		t.Fatal("no watermark-advance event carries the originating commit's span")
	}

	// The freshness section saw the commit become visible: the deferred view
	// has at least one commit-to-visible sample, and — quiesced — no staleness.
	m := db.Metrics()
	var found bool
	for _, v := range m.Freshness.Views {
		if v.View != "branch_totals_deferred" {
			continue
		}
		found = true
		if v.Strategy != "deferred" {
			t.Fatalf("freshness strategy = %q, want deferred", v.Strategy)
		}
		if v.CommitToVisible.Count == 0 {
			t.Fatal("deferred view has no commit-to-visible samples after a fold")
		}
	}
	if !found {
		t.Fatalf("freshness section missing the deferred view: %+v", m.Freshness.Views)
	}
	// The escrow view observed the commit path too.
	for _, v := range m.Freshness.Views {
		if v.View == "branch_totals" && v.CommitToVisible.Count == 0 {
			t.Fatal("escrow view has no commit-path freshness samples")
		}
	}

	// The timeline's span summary names the view the span became visible in.
	var timeline bytes.Buffer
	if err := db.DumpFlightRecord(&timeline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(timeline.String(), "visible in: branch_totals_deferred") {
		t.Fatalf("span summary does not name the view the commit became visible in:\n%s", timeline.String())
	}
}

// spanLinks is what the flight record says about one transaction's causal
// span: the span its tx-begin opened, the span of its deferred-publish, and
// the views whose deferred-apply and watermark-advance events list the span
// among their parents.
type spanLinks struct {
	commitSpan, publishSpan uint64
	applied, advanced       map[string]bool
}

// traceLinks parses the JSONL flight record for transaction txnID's links,
// once the record holds view's watermark advance that made txnID visible.
func traceLinks(t *testing.T, db *vtxn.DB, view string, txnID uint64) spanLinks {
	t.Helper()
	jsonl := flightRecordAfter(t, db, view, txnID)
	type rec struct {
		Span     uint64   `json:"span"`
		Spans    []uint64 `json:"spans"`
		Type     string   `json:"type"`
		Txn      uint64   `json:"txn"`
		Resource string   `json:"resource"`
	}
	l := spanLinks{applied: map[string]bool{}, advanced: map[string]bool{}}
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("JSONL line does not parse: %v: %s", err, sc.Text())
		}
		switch r.Type {
		case "tx-begin":
			if r.Txn == txnID {
				l.commitSpan = r.Span
			}
		case "deferred-publish":
			if r.Txn == txnID {
				l.publishSpan = r.Span
			}
		case "deferred-apply", "watermark-advance":
			for _, s := range r.Spans {
				if l.commitSpan != 0 && s == l.commitSpan {
					if r.Type == "deferred-apply" {
						l.applied[r.Resource] = true
					} else {
						l.advanced[r.Resource] = true
					}
				}
			}
		}
	}
	return l
}

// TestFreshnessAcrossRollupChain traces one marked commit through the 3-level
// deferred rollup chain after a tilt storm: its span crosses the async
// boundary into a fold at every level and the watermark advance of the top,
// and each level's commit-to-visible accounting nests inside the window the
// client measured, with staleness back at zero once drained.
func TestFreshnessAcrossRollupChain(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{WatchdogInterval: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupItemChain(t, db, vtxn.StrategyDeferred)
	startTilts(t, db, "order_items", amountCol, itemLevel, 50).wait()
	if t.Failed() {
		t.FailNow()
	}
	top := rollupChain[len(rollupChain)-1]
	drainTo(t, db, top, db.Metrics().MVCC.Watermark)
	before := db.Metrics()

	// The probe writes a new amount: an update to the current value folds
	// to a zero delta and publishes nothing.
	probeStart := time.Now()
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("order_items", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{amountCol: vtxn.Int(itemLevel + 7)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	drainTo(t, db, top, tx.CommitTS())
	// The applier samples a level's commit-to-visible latency after the
	// watermark moved and just before it traces the level's advance: the
	// client's window closes once every level's advance is in the record.
	for _, v := range rollupChain {
		flightRecordAfter(t, db, v, uint64(tx.ID()))
	}
	clientWindow := time.Since(probeStart)
	after := db.Metrics()

	links := traceLinks(t, db, top, uint64(tx.ID()))
	if links.commitSpan == 0 || links.publishSpan != links.commitSpan {
		t.Fatalf("probe span %d, its deferred-publish span %d: want equal and nonzero", links.commitSpan, links.publishSpan)
	}
	for _, v := range rollupChain {
		if !links.applied[v] {
			t.Errorf("no deferred-apply at level %s carries the probe's span (applied: %v)", v, links.applied)
		}
	}
	if !links.advanced[top] {
		t.Errorf("no watermark advance of %s carries the probe's span (advanced: %v)", top, links.advanced)
	}

	freshOf := func(s vtxn.MetricsSnapshot, view string) (metrics.ViewFreshnessSnapshot, bool) {
		for _, v := range s.Freshness.Views {
			if v.View == view {
				return v, true
			}
		}
		return metrics.ViewFreshnessSnapshot{}, false
	}
	for _, view := range rollupChain {
		b, _ := freshOf(before, view)
		a, ok := freshOf(after, view)
		if !ok || a.Strategy != "deferred" {
			t.Fatalf("freshness section lacks deferred view %s: %+v", view, after.Freshness.Views)
		}
		n := a.CommitToVisible.Count - b.CommitToVisible.Count
		if n <= 0 {
			t.Fatalf("probe left no commit-to-visible sample for %s", view)
		}
		// Every new sample's publish-to-advance interval lies inside the
		// client's begin-to-visible window, so their mean does too.
		if mean := time.Duration((a.CommitToVisible.SumNs - b.CommitToVisible.SumNs) / n); mean > clientWindow {
			t.Errorf("%s: mean commit-to-visible %s exceeds the client-measured window %s", view, mean, clientWindow)
		}
		if a.StalenessNs != 0 {
			t.Errorf("%s: staleness %dns once drained, want 0", view, a.StalenessNs)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// delayHooks sleeps at the deferred-apply fault point, slowing the applier
// without failing it — the freshness-SLO watchdog's test harness.
type delayHooks struct {
	mu    sync.Mutex
	delay time.Duration
}

func (h *delayHooks) SetDelay(d time.Duration) {
	h.mu.Lock()
	h.delay = d
	h.mu.Unlock()
}

func (h *delayHooks) Hit(p fault.Point) error {
	if p != fault.PointDeferredApply {
		return nil
	}
	h.mu.Lock()
	d := h.delay
	h.mu.Unlock()
	time.Sleep(d)
	return nil
}

// TestFreshnessSLOWatchdog injects an applier delay and asserts the watchdog
// fires the freshness-slo signature naming the lagging view, counts the
// breach, and auto-dumps the flight record.
func TestFreshnessSLOWatchdog(t *testing.T) {
	hooks := &delayHooks{}
	sink := &lockedBuffer{}
	tracer := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		Hooks:            hooks,
		Tracer:           tracer,
		FlightSink:       sink,
		WatchdogInterval: 10 * time.Millisecond,
		FreshnessSLO:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	createDeferredTotals(t, db, "lagging_totals")
	seedAccounts(t, db, 4)

	// Stall the applier, then keep publishing: the view's staleness clock
	// (oldest unapplied publish) grows past the 50ms SLO while the watchdog
	// polls every 10ms.
	hooks.SetDelay(150 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	var fired *vtxn.TraceEvent
	for fired == nil && time.Now().Before(deadline) {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, e := range tracer.snapshot() {
			if e.Type == vtxn.TraceStall && e.Phase == "freshness-slo" {
				cp := e
				fired = &cp
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	hooks.SetDelay(0)
	if fired == nil {
		t.Fatal("watchdog never fired the freshness-slo signature under an applier delay")
	}
	if !strings.Contains(fired.Resource, "lagging_totals") {
		t.Fatalf("freshness-slo detection does not name the lagging view: %q", fired.Resource)
	}
	if fired.Dur < 50*time.Millisecond {
		t.Fatalf("detection age %s below the 50ms SLO", fired.Dur)
	}
	if m := db.Metrics(); m.Watchdog.FreshnessBreaches == 0 {
		t.Fatalf("freshness breach not counted: %+v", m.Watchdog)
	}
	// The watchdog emits the stall event first and writes the dump after it,
	// on its own goroutine: seeing the event does not mean the dump is out.
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(sink.String(), "watchdog stall: freshness-slo"); {
		if time.Now().After(deadline) {
			t.Fatalf("no flight-record dump for the SLO breach; sink: %q", sink.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeferredStalenessWhileApplierHeld holds the applier's rounds and checks
// the engine-wide deferred staleness against the per-view one: while a round
// holds a publish it is above 0 and at least the lagging view's, and once the
// applier has drained it is 0.
func TestDeferredStalenessWhileApplierHeld(t *testing.T) {
	hooks := &delayHooks{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	createDeferredTotals(t, db, "lagging_totals")
	seedAccounts(t, db, 4)
	lagging := func(s vtxn.MetricsSnapshot) int64 {
		t.Helper()
		for _, v := range s.Freshness.Views {
			if v.View == "lagging_totals" {
				return v.StalenessNs
			}
		}
		t.Fatalf("no freshness entry for lagging_totals: %+v", s.Freshness.Views)
		return 0
	}

	hooks.SetDelay(200 * time.Millisecond)
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	held := 0
	for deadline := time.Now().Add(5 * time.Second); held < 5 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		s := db.Metrics()
		view := lagging(s)
		if view == 0 {
			continue
		}
		held++
		if engine := s.Deferred.StalenessNs; engine <= 0 || engine < view {
			t.Fatalf("engine-wide deferred staleness %dns while lagging_totals is %dns stale", engine, view)
		}
	}
	if held == 0 {
		t.Fatal("lagging_totals never read stale while the applier was held")
	}

	hooks.SetDelay(0)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s := db.Metrics()
		if s.Deferred.PendingGroups == 0 && lagging(s) == 0 {
			if s.Deferred.StalenessNs != 0 {
				t.Fatalf("engine-wide deferred staleness %dns once drained, want 0", s.Deferred.StalenessNs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("applier never drained: %+v", s.Deferred)
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestDebugFreshnessEndpoint pins the /debug/freshness JSON endpoint: the
// per-view freshness section, including the configured SLO.
func TestDebugFreshnessEndpoint(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{FreshnessSLO: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 2)

	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/freshness")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var got struct {
		SLONs int64 `json:"slo_ns"`
		Views []struct {
			View        string `json:"view"`
			Strategy    string `json:"strategy"`
			StalenessNs int64  `json:"staleness_ns"`
		} `json:"views"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.SLONs != int64(time.Second) {
		t.Fatalf("slo_ns = %d, want %d", got.SLONs, int64(time.Second))
	}
	var names []string
	for _, v := range got.Views {
		names = append(names, v.View)
	}
	if len(names) == 0 || names[0] != "branch_totals" {
		t.Fatalf("freshness views = %v, want branch_totals first", names)
	}
}
