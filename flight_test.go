package vtxn_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/fault"
)

// lockedBuffer is an io.Writer sink safe for engine-path writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// induceDeadlock runs two transactions updating accounts rows 0 and 1 in
// opposite orders until one dies as the deadlock victim.
func induceDeadlock(t *testing.T, db *vtxn.DB) {
	t.Helper()
	errs := make(chan error, 2)
	var ready, release sync.WaitGroup
	ready.Add(2)
	release.Add(1)
	worker := func(first, second int64) {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			ready.Done()
			errs <- err
			return
		}
		defer tx.Rollback()
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(first)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
			ready.Done()
			errs <- err
			return
		}
		ready.Done()
		release.Wait()
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(second)}, map[int]vtxn.Value{2: vtxn.Int(2)}); err != nil {
			errs <- err
			return
		}
		errs <- tx.Commit()
	}
	go worker(0, 1)
	go worker(1, 0)
	ready.Wait()
	release.Done()
	var victim error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && victim == nil {
			victim = err
		}
	}
	if victim == nil {
		t.Fatal("expected one transaction to fail as deadlock victim")
	}
	if !errors.Is(victim, vtxn.ErrDeadlock) {
		t.Fatalf("victim error %v does not unwrap to vtxn.ErrDeadlock", victim)
	}
}

// TestFlightRecordDeadlockDump is the tentpole acceptance test: an induced
// deadlock automatically dumps a causal timeline to Options.FlightSink, and
// both the timeline and the JSONL dump carry the causally-linked spans of
// BOTH deadlocked transactions — begin, lock waits with resource/mode/
// outcome, and end. The watchdog runs too: its own dumps share the sink's
// rate limit and must not swallow the deadlock's.
func TestFlightRecordDeadlockDump(t *testing.T) {
	sink := &lockedBuffer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{FlightSink: sink, WatchdogInterval: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 2)
	induceDeadlock(t, db)

	// The automatic sink dump fired at the moment of the deadlock.
	auto := sink.String()
	if !strings.Contains(auto, "vtxn flight record") {
		t.Fatalf("no automatic dump on deadlock; sink: %q", auto)
	}
	if !strings.Contains(auto, "reason: lock deadlock") {
		t.Fatalf("dump reason does not name the deadlock:\n%s", auto)
	}
	if !strings.Contains(auto, "=== spans ===") {
		t.Fatalf("dump missing the span summary:\n%s", auto)
	}

	// An explicit dump renders the same history on demand.
	var timeline bytes.Buffer
	if err := db.DumpFlightRecord(&timeline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(timeline.String(), "deadlock") {
		t.Fatalf("explicit timeline missing the deadlock:\n%s", timeline.String())
	}

	// The JSONL dump proves causal linkage: the victim's deadlock lock-wait
	// carries a span that resolves to its own tx-begin, the wait names the
	// contested resource and mode, and the other transaction's span appears
	// in the same history with its own begin and end.
	type rec struct {
		Seq      uint64 `json:"seq"`
		Span     uint64 `json:"span"`
		Type     string `json:"type"`
		Txn      uint64 `json:"txn"`
		Resource string `json:"resource"`
		Mode     string `json:"mode"`
		Outcome  string `json:"outcome"`
	}
	var jsonl bytes.Buffer
	if err := db.WriteFlightRecordJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	var (
		beginTxnBySpan = map[uint64]uint64{}
		endSpans       = map[uint64]string{}
		spanEvents     = map[uint64]int{}
		deadlock       *rec
	)
	sc := bufio.NewScanner(&jsonl)
	for sc.Scan() {
		var r rec
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("JSONL line does not parse: %v: %s", err, sc.Text())
		}
		if r.Span != 0 {
			spanEvents[r.Span]++
		}
		switch r.Type {
		case "tx-begin":
			beginTxnBySpan[r.Span] = r.Txn
		case "tx-end":
			endSpans[r.Span] = r.Outcome
		case "lock-wait":
			if r.Outcome == "deadlock" {
				cp := r
				deadlock = &cp
			}
		}
	}
	if deadlock == nil {
		t.Fatal("JSONL history has no deadlock lock-wait event")
	}
	if deadlock.Resource == "" || deadlock.Mode == "" {
		t.Fatalf("deadlock wait lost its resource/mode: %+v", deadlock)
	}
	victimTxn, ok := beginTxnBySpan[deadlock.Span]
	if !ok {
		t.Fatalf("deadlock span s%d has no tx-begin record", deadlock.Span)
	}
	if victimTxn != deadlock.Txn {
		t.Fatalf("span s%d belongs to txn %d but the deadlock wait names txn %d",
			deadlock.Span, victimTxn, deadlock.Txn)
	}
	// The surviving transaction's span is causally present too: a second
	// distinct span with its own begin and at least one more event.
	otherSpans := 0
	for span := range beginTxnBySpan {
		if span != deadlock.Span && spanEvents[span] >= 2 {
			otherSpans++
		}
	}
	if otherSpans == 0 {
		t.Fatalf("history holds only the victim's span; want the partner transaction too (spans: %v)", spanEvents)
	}
	// The victim's span ends in an abort.
	if out := endSpans[deadlock.Span]; out != "abort" {
		t.Fatalf("victim span s%d ends with %q, want abort", deadlock.Span, out)
	}

	if m := db.Metrics(); !m.Flight.Enabled || m.Flight.Recorded == 0 || m.Flight.Dumps == 0 {
		t.Fatalf("flight metrics not reporting: %+v", m.Flight)
	}
}

// TestWatchdogDetectsWALFlushStall injects a write/fsync delay under the WAL
// and asserts the watchdog notices the group-commit flush not advancing:
// EventStall fires, watchdog_detections counts, and the sink gets a dump.
func TestWatchdogDetectsWALFlushStall(t *testing.T) {
	delayFS := fault.NewDelayFS(fault.OS{})
	sink := &lockedBuffer{}
	tracer := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		FS:               delayFS,
		SyncMode:         vtxn.SyncData,
		Tracer:           tracer,
		FlightSink:       sink,
		WatchdogInterval: 10 * time.Millisecond, // stall threshold: 4 intervals
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 1)

	// Stall the disk, then commit: the flush holds the WAL's flush section
	// for the whole injected delay while the watchdog polls every 10ms.
	delayFS.SetDelay(600 * time.Millisecond)
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
	delayFS.SetDelay(0)

	var stall *vtxn.TraceEvent
	for _, e := range tracer.snapshot() {
		if e.Type == vtxn.TraceStall {
			cp := e
			stall = &cp
			break
		}
	}
	if stall == nil {
		t.Fatal("watchdog emitted no EventStall during the injected WAL stall")
	}
	if stall.Phase != "wal-flush" {
		t.Fatalf("stall signature %q, want wal-flush", stall.Phase)
	}
	if stall.Dur < 40*time.Millisecond {
		t.Fatalf("stall age %s below the derived threshold of four intervals", stall.Dur)
	}
	m := db.Metrics()
	if m.Watchdog.Detections == 0 || m.Watchdog.WALStalls == 0 {
		t.Fatalf("watchdog metrics not counted: %+v", m.Watchdog)
	}
	if !strings.Contains(sink.String(), "watchdog stall: wal-flush") {
		t.Fatalf("no flight-record dump for the stall; sink: %q", sink.String())
	}
}

// TestFlightRecorderDisabled: FlightRecorderSize < 0 switches the recorder
// off — dumps fail with the sentinel, metrics report disabled, and events
// still reach Options.Tracer (unstamped).
func TestFlightRecorderDisabled(t *testing.T) {
	tracer := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{
		FlightRecorderSize: -1,
		Tracer:             tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 1)

	if err := db.DumpFlightRecord(io.Discard); !errors.Is(err, vtxn.ErrFlightDisabled) {
		t.Fatalf("DumpFlightRecord = %v, want ErrFlightDisabled", err)
	}
	if err := db.WriteFlightRecordJSONL(io.Discard); !errors.Is(err, vtxn.ErrFlightDisabled) {
		t.Fatalf("WriteFlightRecordJSONL = %v, want ErrFlightDisabled", err)
	}
	if m := db.Metrics(); m.Flight.Enabled {
		t.Fatalf("flight metrics claim enabled: %+v", m.Flight)
	}
	evs := tracer.snapshot()
	if len(evs) == 0 {
		t.Fatal("tracer starved when the recorder is disabled")
	}
	for _, e := range evs {
		if e.Seq != 0 {
			t.Fatalf("event stamped without a recorder: %+v", e)
		}
	}

	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/debug/flightrec with recorder disabled: status %d, want 503", resp.StatusCode)
	}
}

// TestMetricsHandlerConcurrentScrape races four scrapers (metrics text and
// the JSONL flight-record endpoint) against a live banking workload — the
// -race proof that snapshotting and ring dumps are safe under load.
func TestMetricsHandlerConcurrentScrape(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 8)

	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrapeErr := make(chan error, 8)
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		path := "/"
		if i%2 == 1 {
			path = "/debug/flightrec"
		}
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					scrapeErr <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					scrapeErr <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					scrapeErr <- errors.New(path + ": status " + resp.Status)
					return
				}
			}
		}(path)
	}

	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				tx, err := db.Begin(vtxn.ReadCommitted)
				if err != nil {
					return
				}
				row := int64((w*50 + i) % 8)
				if err := tx.Update("accounts", vtxn.Row{vtxn.Int(row)}, map[int]vtxn.Value{2: vtxn.Int(int64(i))}); err != nil {
					tx.Rollback()
					continue
				}
				tx.Commit()
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	scrapers.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}
}

// TestFlightRecordJSONLGoldenSchema pins the JSONL dump's key set: required
// keys on every record, optional keys drawn only from the documented set.
// Like the metrics snapshot, the schema may grow but never rename silently.
func TestFlightRecordJSONLGoldenSchema(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupPublic(t, db)
	seedAccounts(t, db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen so recovery events (the "phase" key) enter the record, then
	// deadlock two transactions so failed lock waits (resource/mode/outcome)
	// and commit-path events (spans, folds, group commits) follow them.
	db, err = vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	induceDeadlock(t, db)
	// A deferred view exercises the async-maintenance events: the commit's
	// deferred-publish, the applier's fold, and the watermark advance whose
	// multi-parent "spans" key links back to the originating commit.
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name: "branch_totals_deferred", Kind: vtxn.ViewAggregate,
		Source:   "accounts",
		GroupBy:  []string{"branch"},
		Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
		Strategy: vtxn.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(42)}); err != nil {
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

	jsonl := flightRecordAfter(t, db, "branch_totals_deferred", uint64(tx.ID()))
	required := []string{"seq", "wall_ns", "type"}
	optional := map[string]bool{
		"span": true, "txn": true, "dur_ns": true, "resource": true,
		"mode": true, "outcome": true, "rows": true, "phase": true,
		"spans": true,
	}
	seen := map[string]bool{}
	records := 0
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	for sc.Scan() {
		records++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("record %d does not parse: %v", records, err)
		}
		for _, k := range required {
			if _, ok := m[k]; !ok {
				t.Fatalf("record %d missing required key %q: %s", records, k, sc.Text())
			}
		}
		for k := range m {
			seen[k] = true
			isRequired := k == "seq" || k == "wall_ns" || k == "type"
			if !isRequired && !optional[k] {
				t.Fatalf("record %d carries undocumented key %q — extend the golden schema deliberately: %s",
					records, k, sc.Text())
			}
		}
	}
	if records == 0 {
		t.Fatal("JSONL dump is empty")
	}
	// The workload above must have exercised the whole optional set; a key
	// that stops appearing means a field silently stopped being populated.
	for k := range optional {
		if !seen[k] {
			t.Errorf("optional key %q never appeared across %d records", k, records)
		}
	}
}

// TestSlowLoggerAlwaysPrintsFailures pins the SlowLogger contract: failed
// lock waits and stall events print regardless of the duration threshold;
// fast granted waits stay suppressed.
func TestSlowLoggerAlwaysPrintsFailures(t *testing.T) {
	var sb strings.Builder
	l := vtxn.NewSlowLogger(&sb, time.Hour, "t: ")
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceLockWait, Dur: 3 * time.Microsecond,
		Resource: "row/accounts/0", Mode: "X", Outcome: "deadlock"})
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceLockWait, Dur: 3 * time.Microsecond,
		Resource: "row/accounts/1", Mode: "X", Outcome: "timeout"})
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceStall, Phase: "wal-flush",
		Resource: "flush active 3s", Dur: 3 * time.Second})
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceLockWait, Dur: 3 * time.Microsecond,
		Resource: "row/accounts/2", Mode: "X", Outcome: "granted"}) // suppressed
	out := sb.String()
	for _, want := range []string{"deadlock", "timeout", "stall wal-flush"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow log dropped a %q line below threshold:\n%s", want, out)
		}
	}
	if strings.Contains(out, "granted") {
		t.Fatalf("fast granted wait should stay below the threshold:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 3 {
		t.Fatalf("want exactly 3 lines, got %d:\n%s", got, out)
	}
}
