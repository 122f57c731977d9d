package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fault"
)

// turnstileHooks parks the applier at the top of every component fold
// (PointDeferredApply): it announces itself on arrived and waits there until
// the test closes pass.
type turnstileHooks struct {
	arrived chan struct{}
	pass    chan struct{}
}

func (h *turnstileHooks) Hit(p fault.Point) error {
	if p == fault.PointDeferredApply {
		select {
		case h.arrived <- struct{}{}:
			<-h.pass
		case <-h.pass: // closed: the test is over, run free
		}
	}
	return nil
}

// TestDeferredViewWatermarkSetAtCreation: a deferred view's watermark — the
// timestamp the scrubber reads its source at, and a term of the prune horizon
// — must stand from the moment the view exists, not from whenever the applier
// next runs a round. While it was unset the pruner was free to drop the
// version chains of rows written after the create; when the watermark then
// went to the create timestamp, a source read there saw the chainless rows as
// if they had always been, and the scrubber reported the view as missing
// groups it was not yet meant to have (seen once in fifty runs of the root
// package's TestFreshnessSLOWatchdog under the race detector).
func TestDeferredViewWatermarkSetAtCreation(t *testing.T) {
	hooks := &turnstileHooks{arrived: make(chan struct{}), pass: make(chan struct{})}
	db := openTestDB(t, Options{Hooks: hooks, ScrubInterval: -1, MVCCPruneInterval: -1})
	var once sync.Once
	free := func() { once.Do(func() { close(hooks.pass) }) }
	t.Cleanup(free) // registered after openTestDB's Close, so it runs first
	setupBanking(t, db, catalog.StrategyDeferred)

	// Park the applier: a commit against the first deferred view sends it into
	// a fold round, where the turnstile holds it — the second view is created
	// while no applier round can run.
	insertAccounts(t, db, acctRow(1, 7, 100))
	<-hooks.arrived
	if err := db.CreateIndexedView(catalog.View{
		Name: "late_totals", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs:        []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggSum, Arg: expr.Col(2)}},
		Strategy:    catalog.StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
	if wm, created := db.oracle.ViewWatermark(mustView(t, db, "late_totals").ID), db.oracle.ReadTS(); wm != created {
		t.Fatalf("late_totals watermark = %d right after its create at %d", wm, created)
	}
	free()
	checkConsistent(t, db)
}

// TestRefreshPublishesApplyPair: a refresh makes a deferred view equal its
// source as of the refresh's commit timestamp, so it must say so through the
// view's (applyTS, watermark) pair before that timestamp is visible — not
// leave the pair to a later applier round. With the applier parked mid-round
// no round runs; had the refresh left the pair at the create's watermark, the
// scrubber would compare the refreshed rows with the source as of the create
// and report a healthy view as diverged.
func TestRefreshPublishesApplyPair(t *testing.T) {
	hooks := &turnstileHooks{arrived: make(chan struct{}), pass: make(chan struct{})}
	db := openTestDB(t, Options{Hooks: hooks, ScrubInterval: -1, MVCCPruneInterval: -1})
	var once sync.Once
	free := func() { once.Do(func() { close(hooks.pass) }) }
	t.Cleanup(free) // registered after openTestDB's Close, so it runs first
	setupBanking(t, db, catalog.StrategyDeferred)

	insertAccounts(t, db, acctRow(1, 7, 100))
	<-hooks.arrived
	if _, err := db.RefreshView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	applyTS, wm := db.oracle.ViewApplied(mustView(t, db, "branch_totals").ID)
	if refreshed := db.oracle.ReadTS(); applyTS != refreshed || wm != refreshed {
		t.Fatalf("apply pair = (%d, %d) right after a refresh at %d", applyTS, wm, refreshed)
	}
	if n, err := db.scrub.FullPass(context.Background()); err != nil || n != 0 {
		t.Fatalf("FullPass after the refresh: %d divergences, err %v", n, err)
	}
	free()
	checkConsistent(t, db)
}

// TestRefreshUnderParkedRoundFoldsOnce: a refresh that lands while an applier
// round holds drained deltas for the view, with commits on both sides of it,
// leaves the view folding each commit exactly once — the ones at or below the
// refresh's watermark are in the recompute and skipped, the one above it is
// folded — and costs the round no retry.
func TestRefreshUnderParkedRoundFoldsOnce(t *testing.T) {
	hooks := &turnstileHooks{arrived: make(chan struct{}), pass: make(chan struct{})}
	db := openTestDB(t, Options{Hooks: hooks, ScrubInterval: -1})
	var once sync.Once
	free := func() { once.Do(func() { close(hooks.pass) }) }
	t.Cleanup(free) // registered after openTestDB's Close, so it runs first
	setupBanking(t, db, catalog.StrategyDeferred)

	insertAccounts(t, db, acctRow(1, 7, 100)) // drained by the parked round
	<-hooks.arrived
	insertAccounts(t, db, acctRow(2, 7, 50)) // queued, below the refresh
	if _, err := db.RefreshView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(3, 7, 25)) // above the refresh
	free()
	if err := db.waitDeferredCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count, sum, ok := branchTotal(t, db, 7); !ok || count != 3 || sum != 175 {
		t.Fatalf("branch 7 = (%d, %d, %v), want (3, 175): a commit folded twice or not at all", count, sum, ok)
	}
	checkConsistent(t, db)
	if n := db.Metrics().Deferred.RetryRounds; n != 0 {
		t.Fatalf("retry_rounds = %d, want 0: the refresh failed the parked round", n)
	}
}
