package core

import (
	"sync"
	"testing"

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
// gets round to the create barrier. While it was unset the pruner was free to
// drop the version chains of rows written after the create; when the barrier
// then put the watermark at the create timestamp, a source read there saw the
// chainless rows as if they had always been, and the scrubber reported the
// view as missing groups it was not yet meant to have (seen once in fifty runs
// of the root package's TestFreshnessSLOWatchdog under the race detector).
func TestDeferredViewWatermarkSetAtCreation(t *testing.T) {
	hooks := &turnstileHooks{arrived: make(chan struct{}), pass: make(chan struct{})}
	db := openTestDB(t, Options{Hooks: hooks, ScrubInterval: -1, MVCCPruneInterval: -1})
	var once sync.Once
	free := func() { once.Do(func() { close(hooks.pass) }) }
	t.Cleanup(free) // registered after openTestDB's Close, so it runs first
	setupBanking(t, db, catalog.StrategyDeferred)

	// Park the applier: a commit against the first deferred view sends it into
	// a fold round, where the turnstile holds it — the second view's create
	// barrier will wait in the queue.
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
