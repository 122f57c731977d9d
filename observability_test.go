package vtxn_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	vtxn "repro"
)

// seedAccounts inserts n rows spread over two branches.
func seedAccounts(t *testing.T, db *vtxn.DB, n int) {
	t.Helper()
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tx.Insert("accounts", vtxn.Row{vtxn.Int(int64(i)), vtxn.Int(int64(i % 2)), vtxn.Int(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockSentinel induces a real deadlock (two transactions updating
// two rows in opposite orders) and asserts the victim's error unwraps to the
// public sentinel.
func TestDeadlockSentinel(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 2)

	errs := make(chan error, 2)
	var ready, release sync.WaitGroup
	ready.Add(2)
	release.Add(1)
	worker := func(first, second int64) {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
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
		release.Wait() // both hold their first lock before crossing
		err = tx.Update("accounts", vtxn.Row{vtxn.Int(second)}, map[int]vtxn.Value{2: vtxn.Int(2)})
		if err != nil {
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

	m := db.Metrics()
	if m.Lock.Deadlocks == 0 {
		t.Fatalf("lock metrics recorded no deadlock: %+v", m.Lock)
	}
	var shardDeadlocks int64
	for _, ps := range m.Lock.PerShard {
		shardDeadlocks += ps.Deadlocks
	}
	if shardDeadlocks == 0 {
		t.Fatal("deadlock not attributed to any lock shard")
	}
}

// TestLockTimeoutSentinel holds an X lock in one transaction and asserts a
// second transaction's bounded wait unwraps to vtxn.ErrLockTimeout.
func TestLockTimeoutSentinel(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 1)

	holder, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Rollback()
	if err := holder.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
		t.Fatal(err)
	}

	waiter, err := db.BeginTx(context.Background(), vtxn.TxOptions{
		Isolation:   vtxn.ReadCommitted,
		LockTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Rollback()
	err = waiter.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(2)})
	if err == nil {
		t.Fatal("expected the bounded lock wait to time out")
	}
	if !errors.Is(err, vtxn.ErrLockTimeout) {
		t.Fatalf("error %v does not unwrap to vtxn.ErrLockTimeout", err)
	}
	if m := db.Metrics(); m.Lock.Timeouts == 0 {
		t.Fatalf("lock metrics recorded no timeout: %+v", m.Lock)
	}
}

// TestBeginTxContextCancelAbortsLockWait cancels the transaction's context
// while it is blocked on a lock and asserts the wait returns promptly with a
// wrapped context error.
func TestBeginTxContextCancelAbortsLockWait(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 1)

	holder, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Rollback()
	if err := holder.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiter, err := db.BeginTx(ctx, vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Rollback()
	done := make(chan error, 1)
	go func() {
		done <- waiter.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(2)})
	}()
	time.Sleep(20 * time.Millisecond) // let the wait queue
	cancel()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled lock wait did not return")
	}
	if err == nil {
		t.Fatal("expected the cancelled wait to fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// metricsSchema returns the golden JSON schema of DB.Metrics(): every key
// path of the snapshot encoding, sorted. Additions extend this list; renames
// and removals break the public API and must not happen silently.
func metricsSchema() []string {
	schema := []string{
		"cascade.coalesced", "cascade.deferred_out", "cascade.enqueued",
		"cascade.folds", "cascade.level_folds",
		"deferred.apply", "deferred.apply_rounds", "deferred.deltas_coalesced",
		"deferred.deltas_in", "deferred.groups_applied", "deferred.lag_ts",
		"deferred.pending_groups", "deferred.published_batches",
		"deferred.published_groups", "deferred.queue_high_water",
		"deferred.retry_rounds", "deferred.staleness_ns", "deferred.views",
		"deferred.views.tree", "deferred.views.view", "deferred.views.watermark",
		"deferred.watermark",
		"engine.aborts", "engine.commits", "engine.escalations",
		"engine.snapshot_unix_ns", "engine.sys_txns", "engine.uptime_ns",
		"escrow.fold_aborts", "escrow.fold_batch_max", "escrow.fold_batches",
		"escrow.fold_rows", "escrow.pending_rows",
		"flightrec.capacity", "flightrec.dumps", "flightrec.enabled",
		"flightrec.recorded",
		"freshness.slo_ns", "freshness.views",
		"freshness.views.commit_to_visible", "freshness.views.staleness_ns",
		"freshness.views.strategy", "freshness.views.tree", "freshness.views.view",
		"ghosts.backlog", "ghosts.backlog_high_water", "ghosts.cleaner_passes",
		"ghosts.created", "ghosts.erased",
		"hotspots.sketch_capacity", "hotspots.top_delta", "hotspots.top_wait",
		"hotspots.views",
		"hotspots.views.fold_ns", "hotspots.views.rows_folded",
		"hotspots.views.tree", "hotspots.views.view", "hotspots.views.wal_bytes",
		"lock.collisions", "lock.deadlocks", "lock.last_sweep_ns",
		"lock.max_queue_depth", "lock.max_sweep_ns", "lock.per_shard",
		"lock.per_shard.collisions", "lock.per_shard.deadlocks",
		"lock.per_shard.max_queue_depth", "lock.per_shard.resources",
		"lock.per_shard.timeouts", "lock.per_shard.wait_ns", "lock.per_shard.waits",
		"lock.requests", "lock.shards", "lock.sweeps", "lock.timeouts",
		"lock.wait", "lock.waits",
		"mvcc.active_snapshots", "mvcc.chain_len_high_water", "mvcc.chains",
		"mvcc.oldest_snapshot_age_ns", "mvcc.prune_passes", "mvcc.snapshots",
		"mvcc.versions_pruned", "mvcc.versions_stamped", "mvcc.watermark",
		"recovery.analysis_ns", "recovery.fresh", "recovery.gen", "recovery.losers",
		"recovery.redo_ns", "recovery.replayed", "recovery.torn",
		"recovery.undo_ns", "recovery.undone_ops",
		"scrub.conflicts", "scrub.cycle_dur", "scrub.cycles", "scrub.divergences",
		"scrub.enabled", "scrub.last_full_pass_unix", "scrub.rows_verified",
		"scrub.slices", "scrub.snapshot_retries", "scrub.views",
		"scrub.views.coverage_ts", "scrub.views.divergences",
		"scrub.views.last_pass_unix_ns", "scrub.views.passes",
		"scrub.views.rows_verified", "scrub.views.tree", "scrub.views.view",
		"txn.apply", "txn.begin", "txn.commit_wait", "txn.fold", "txn.lock_wait",
		"wal.appends", "wal.batch_max", "wal.batch_records", "wal.coalesced_syncs",
		"wal.flush", "wal.flush_active_ns", "wal.flushes", "wal.fsync",
		"watchdog.detections", "watchdog.escrow_stalls", "watchdog.freshness_breaches",
		"watchdog.ghost_stalls", "watchdog.lock_convoys", "watchdog.scrub_divergences",
		"watchdog.wal_stalls",
	}
	// Histograms share one sub-schema; expand it instead of listing forty
	// near-identical lines.
	for _, h := range []string{"deferred.apply", "freshness.views.commit_to_visible", "lock.wait", "scrub.cycle_dur", "txn.apply", "txn.begin", "txn.commit_wait", "txn.fold", "txn.lock_wait", "wal.flush", "wal.fsync"} {
		for _, f := range []string{"count", "sum_ns", "mean_ns", "p50_ns", "p99_ns", "max_ns"} {
			schema = append(schema, h+"."+f)
		}
	}
	// Both heavy-hitter listings share the hot-group sub-schema.
	for _, h := range []string{"hotspots.top_delta", "hotspots.top_wait"} {
		for _, f := range []string{"count", "err", "key", "tree", "value", "view"} {
			schema = append(schema, h+"."+f)
		}
	}
	sort.Strings(schema)
	return schema
}

// collectKeyPaths walks decoded JSON and records every object key path,
// descending into the first element of arrays.
func collectKeyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			collectKeyPaths(p, sub, out)
		}
	case []any:
		if len(x) > 0 {
			collectKeyPaths(prefix, x[0], out)
		}
	}
}

// TestMetricsGoldenSchema asserts the JSON encoding of DB.Metrics() exposes
// exactly the documented key paths.
func TestMetricsGoldenSchema(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 4)

	// collectKeyPaths only descends into non-empty arrays, so every hotspot
	// listing must carry at least one element. The seed inserts populate
	// top_delta and the per-view cost table; a timed-out keyed lock wait
	// populates top_wait.
	holder, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(1)}); err != nil {
		t.Fatal(err)
	}
	waiter, err := db.BeginTx(context.Background(), vtxn.TxOptions{
		Isolation:   vtxn.ReadCommitted,
		LockTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := waiter.Update("accounts", vtxn.Row{vtxn.Int(0)}, map[int]vtxn.Value{2: vtxn.Int(2)}); !errors.Is(err, vtxn.ErrLockTimeout) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	waiter.Rollback()
	holder.Rollback()

	// A deferred view populates the deferred.views listing (and the schema's
	// per-view watermark sub-paths).
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

	buf, err := json.Marshal(db.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf, &decoded); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	collectKeyPaths("", decoded, got)
	for _, top := range []string{"engine", "txn", "lock", "escrow", "wal", "ghosts", "recovery", "watchdog", "flightrec", "hotspots", "mvcc", "deferred", "cascade", "freshness", "scrub"} {
		if !got[top] {
			t.Fatalf("snapshot missing top-level section %q", top)
		}
		delete(got, top)
	}
	var gotPaths []string
	for p := range got {
		gotPaths = append(gotPaths, p)
	}
	sort.Strings(gotPaths)
	want := strings.Join(metricsSchema(), "\n")
	if have := strings.Join(gotPaths, "\n"); have != want {
		t.Fatalf("metrics JSON schema drifted.\n got:\n%s\n want:\n%s", have, want)
	}
}

// TestMetricsHandlerPrometheus drives real work through the engine and
// asserts the HTTP exposition is well-formed Prometheus text carrying the
// lock-wait, escrow-fold, and group-commit series.
func TestMetricsHandlerPrometheus(t *testing.T) {
	db := openDB(t)
	setupPublic(t, db)
	seedAccounts(t, db, 8)

	// Escrow-folding commits so the fold and group-commit series are nonzero.
	for i := 0; i < 3; i++ {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(int64(i))}, map[int]vtxn.Value{2: vtxn.Int(int64(200 + i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(vtxn.MetricsHandler(db))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"vtxn_lock_wait_seconds",
		"vtxn_escrow_fold_batches_total",
		"vtxn_wal_group_commit_flushes_total",
		"vtxn_txn_commits_total 4",
		"vtxn_scrub_enabled 1",
		"vtxn_scrub_rows_verified_total",
		"vtxn_scrub_divergences_total 0",
		"vtxn_scrub_last_full_pass_unix",
		"vtxn_scrub_view_coverage_ts{view=\"branch_totals\"}",
		"vtxn_watchdog_signature_detections_total{signature=\"scrub-divergence\"} 0",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("exposition missing %q:\n%s", series, text)
		}
	}
	// Minimal format validation: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

// TestTracerReceivesEvents wires a recording tracer through Options.Tracer
// and asserts the engine emits begin/end, fold, and group-commit events.
func TestTracerReceivesEvents(t *testing.T) {
	rec := &recordingTracer{}
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	seedAccounts(t, db, 2)

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

	seen := rec.kinds()
	for _, want := range []vtxn.TraceEventType{vtxn.TraceTxBegin, vtxn.TraceTxEnd, vtxn.TraceFold, vtxn.TraceGroupCommit} {
		if !seen[want] {
			t.Fatalf("tracer never saw %v (saw %v)", want, seen)
		}
	}
}

type recordingTracer struct {
	mu     sync.Mutex
	events []vtxn.TraceEvent
}

func (r *recordingTracer) TraceEvent(e vtxn.TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *recordingTracer) snapshot() []vtxn.TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]vtxn.TraceEvent(nil), r.events...)
}

func (r *recordingTracer) kinds() map[vtxn.TraceEventType]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[vtxn.TraceEventType]bool{}
	for _, e := range r.events {
		out[e.Type] = true
	}
	return out
}

// TestSlowLoggerFormat exercises the packaged slow-event tracer.
func TestSlowLoggerFormat(t *testing.T) {
	var sb strings.Builder
	l := vtxn.NewSlowLogger(&sb, time.Millisecond, "bench: ")
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceLockWait, Dur: 5 * time.Millisecond, Resource: "tree#3[61]", Mode: "X", Outcome: "granted"})
	l.TraceEvent(vtxn.TraceEvent{Type: vtxn.TraceLockWait, Dur: 5 * time.Microsecond}) // below threshold
	out := sb.String()
	if !strings.Contains(out, "lock-wait") || !strings.Contains(out, "granted") {
		t.Fatalf("slow log missing event detail: %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("below-threshold event was logged: %q", out)
	}
}
