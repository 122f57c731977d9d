package vtxn_test

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	vtxn "repro"
)

// TestMetricsCountersScripted runs a fixed script — commits, one rollback,
// one deadlock, one lock timeout, one escalation, ghosts created and erased,
// and a second view created and dropped — and pins the counters DB.Metrics
// reports for it: the engine totals, the lock totals against their per-shard
// breakdown, the ghost counters, and the three per-view listings.
func TestMetricsCountersScripted(t *testing.T) {
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{EscalationThreshold: 2, ScrubInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	setupPublic(t, db)
	update := func(tx *vtxn.Tx, key, balance int64) error {
		return tx.Update("accounts", vtxn.Row{vtxn.Int(key)}, map[int]vtxn.Value{2: vtxn.Int(balance)})
	}
	commit := func(fn func(tx *vtxn.Tx) error) {
		t.Helper()
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(tx); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Four rows in one transaction: the third key lock on accounts crosses
	// EscalationThreshold 2, so this commit escalates once.
	seedAccounts(t, db, 4)
	// A second view, with rows of its own, to be dropped later.
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name:        "branch_counts",
		Kind:        vtxn.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs:        []vtxn.AggSpec{{Func: vtxn.AggCountRows}},
		Strategy:    vtxn.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
	const commits = 5
	for i := int64(0); i < commits; i++ {
		commit(func(tx *vtxn.Tx) error { return update(tx, i%4, 200+i) })
	}
	db.Metrics() // every per-view record of both views exists now

	// One rollback.
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := update(tx, 0, 1); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	// One deadlock: two transactions update rows 0 and 1 in opposite orders.
	// The victim rolls back, the survivor commits.
	errs := make(chan error, 2)
	var ready, release sync.WaitGroup
	ready.Add(2)
	release.Add(1)
	cross := func(first, second int64) {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			ready.Done()
			errs <- err
			return
		}
		if err := update(tx, first, 300); err != nil {
			ready.Done()
			tx.Rollback()
			errs <- err
			return
		}
		ready.Done()
		release.Wait()
		if err := update(tx, second, 301); err != nil {
			tx.Rollback()
			errs <- err
			return
		}
		errs <- tx.Commit()
	}
	go cross(0, 1)
	go cross(1, 0)
	ready.Wait()
	release.Done()
	var failed []error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) != 1 || !errors.Is(failed[0], vtxn.ErrDeadlock) {
		t.Fatalf("want one deadlock victim, got %v", failed)
	}

	// One lock timeout: the waiter times out behind the holder; both roll
	// back.
	holder, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	if err := update(holder, 2, 400); err != nil {
		t.Fatal(err)
	}
	waiter, err := db.BeginTx(context.Background(), vtxn.TxOptions{Isolation: vtxn.ReadCommitted, LockTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := update(waiter, 2, 401); !errors.Is(err, vtxn.ErrLockTimeout) {
		t.Fatalf("want a lock timeout, got %v", err)
	}
	waiter.Rollback()
	holder.Rollback()

	// Ghosts: emptying branch 1 turns both views' group rows into ghosts at
	// commit, and CleanGhosts erases them.
	commit(func(tx *vtxn.Tx) error {
		for _, k := range []int64{1, 3} {
			if err := tx.Delete("accounts", vtxn.Row{vtxn.Int(k)}); err != nil {
				return err
			}
		}
		return nil
	})
	if n := db.CleanGhosts(); n != 2 {
		t.Fatalf("CleanGhosts erased %d ghosts, want 2", n)
	}
	if err := db.DropView("branch_counts"); err != nil {
		t.Fatal(err)
	}

	m := db.Metrics()
	// seedAccounts, the five updates, the deadlock survivor and the delete.
	if m.Engine.Commits != 1+commits+1+1 {
		t.Errorf("engine.commits = %d, want %d", m.Engine.Commits, 1+commits+1+1)
	}
	// The rollback, the deadlock victim, the timed-out waiter and its holder.
	if m.Engine.Aborts != 4 {
		t.Errorf("engine.aborts = %d, want 4", m.Engine.Aborts)
	}
	if m.Engine.Escalations != 1 {
		t.Errorf("engine.escalations = %d, want 1", m.Engine.Escalations)
	}
	var deadlocks, timeouts int64
	for _, ps := range m.Lock.PerShard {
		deadlocks += ps.Deadlocks
		timeouts += ps.Timeouts
	}
	if m.Lock.Deadlocks != 1 || deadlocks != 1 {
		t.Errorf("lock.deadlocks = %d, per-shard sum %d, want 1 and 1", m.Lock.Deadlocks, deadlocks)
	}
	if m.Lock.Timeouts != 1 || timeouts != 1 {
		t.Errorf("lock.timeouts = %d, per-shard sum %d, want 1 and 1", m.Lock.Timeouts, timeouts)
	}
	if len(m.Lock.PerShard) != m.Lock.Shards {
		t.Errorf("%d per-shard entries for %d shards", len(m.Lock.PerShard), m.Lock.Shards)
	}
	// seedAccounts makes one ghost per branch in branch_totals before its
	// first fold (branch_counts is backfilled with live rows), and branch 1
	// turns into a ghost in both views at the delete; the cleaner erases
	// those two.
	if m.Ghost.Created != 4 || m.Ghost.Erased != 2 {
		t.Errorf("ghosts created %d, erased %d, want 4 and 2", m.Ghost.Created, m.Ghost.Erased)
	}
	live := []string{"branch_totals"}
	var hot, fresh, scrubbed []string
	for _, v := range m.Hotspots.Views {
		hot = append(hot, v.View)
	}
	for _, v := range m.Freshness.Views {
		fresh = append(fresh, v.View)
	}
	for _, v := range m.Scrub.Views {
		scrubbed = append(scrubbed, v.View)
	}
	for name, got := range map[string][]string{"hotspots.views": hot, "freshness.views": fresh, "scrub.views": scrubbed} {
		sort.Strings(got)
		if len(got) != len(live) || got[0] != live[0] {
			t.Errorf("%s lists %v, want the live views %v", name, got, live)
		}
	}
}
