package txn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
)

func TestOracleWatermarkLagsInflight(t *testing.T) {
	o := NewOracle()
	if got := o.ReadTS(); got != 0 {
		t.Fatalf("fresh oracle ReadTS = %d, want 0", got)
	}
	a := o.AllocateCommitTS()
	b := o.AllocateCommitTS()
	if a != 1 || b != 2 {
		t.Fatalf("allocated %d,%d, want 1,2", a, b)
	}
	if got := o.ReadTS(); got != 0 {
		t.Fatalf("ReadTS with both inflight = %d, want 0", got)
	}
	// Finishing the newer commit must not expose the older, still-inflight one.
	o.FinishCommit(b)
	if got := o.ReadTS(); got != 0 {
		t.Fatalf("ReadTS with ts=1 inflight = %d, want 0", got)
	}
	o.FinishCommit(a)
	if got := o.ReadTS(); got != 2 {
		t.Fatalf("ReadTS after both finished = %d, want 2", got)
	}
}

func TestOracleSnapshotPinsHorizon(t *testing.T) {
	o := NewOracle()
	ts := o.AllocateCommitTS()
	o.FinishCommit(ts)
	rts, h := o.BeginSnapshot()
	if rts != 1 {
		t.Fatalf("snapshot read ts = %d, want 1", rts)
	}
	if n := o.ActiveSnapshots(); n != 1 {
		t.Fatalf("active snapshots = %d, want 1", n)
	}
	ts2 := o.AllocateCommitTS()
	o.FinishCommit(ts2)
	if got := o.PruneHorizon(); got != 1 {
		t.Fatalf("horizon with pinned snapshot = %d, want 1", got)
	}
	if age := o.OldestSnapshotAge(time.Now().Add(time.Second)); age < time.Second {
		t.Fatalf("oldest snapshot age = %v, want >= 1s", age)
	}
	o.EndSnapshot(h)
	if n := o.ActiveSnapshots(); n != 0 {
		t.Fatalf("active snapshots after end = %d, want 0", n)
	}
	if got := o.PruneHorizon(); got != 2 {
		t.Fatalf("horizon after snapshot retired = %d, want 2", got)
	}
	if got := o.SnapshotsBegun(); got != 1 {
		t.Fatalf("snapshots begun = %d, want 1", got)
	}
	o.EndSnapshot(h) // double end is a no-op
	if n := o.ActiveSnapshots(); n != 0 {
		t.Fatalf("active snapshots after double end = %d, want 0", n)
	}
}

// TestOracleWaitForViewWatermarkDropUnblocks pins the drop contract: a waiter
// blocked on a view watermark must return ErrViewWatermarkDropped when the
// view is dropped — not hang forever on a watermark that will never advance.
// Covers both a view that had published a watermark and one that never did.
func TestOracleWaitForViewWatermarkDropUnblocks(t *testing.T) {
	for _, published := range []bool{true, false} {
		o := NewOracle()
		tree := id.Tree(7)
		if published {
			o.AdvanceViewWatermark(tree, 3)
		}
		errc := make(chan error, 1)
		go func() {
			errc <- o.WaitForViewWatermark(context.Background(), tree, 100)
		}()
		// Let the waiter block, then drop the view out from under it.
		time.Sleep(10 * time.Millisecond)
		o.DropViewWatermark(tree)
		select {
		case err := <-errc:
			if !errors.Is(err, ErrViewWatermarkDropped) {
				t.Fatalf("published=%v: wait returned %v, want ErrViewWatermarkDropped", published, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("published=%v: waiter still blocked 5s after DropViewWatermark", published)
		}
		// A wait begun after the drop fails immediately too.
		if err := o.WaitForViewWatermark(context.Background(), tree, 1); !errors.Is(err, ErrViewWatermarkDropped) {
			t.Fatalf("published=%v: post-drop wait returned %v, want ErrViewWatermarkDropped", published, err)
		}
		// An already-satisfied wait still succeeds regardless of other drops.
		other := id.Tree(9)
		o.AdvanceViewWatermark(other, 5)
		if err := o.WaitForViewWatermark(context.Background(), other, 5); err != nil {
			t.Fatalf("published=%v: satisfied wait on live view returned %v", published, err)
		}
	}
}

// TestOracleWaitForViewWatermarkCtxCancelRacingDrop interleaves context
// cancellation with concurrent drops and advances: every waiter must resolve
// to exactly one of nil / ctx.Err() / ErrViewWatermarkDropped, never hang.
func TestOracleWaitForViewWatermarkCtxCancelRacingDrop(t *testing.T) {
	o := NewOracle()
	const waiters = 16
	tree := id.Tree(11)
	o.AdvanceViewWatermark(tree, 1)
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the waiters use the cancelable context, half block on the
			// drop alone.
			c := context.Background()
			if i%2 == 0 {
				c = ctx
			}
			errs <- o.WaitForViewWatermark(c, tree, 1000)
		}(i)
	}
	// Racing advances (below the target), a cancel, and the drop.
	var race sync.WaitGroup
	race.Add(2)
	go func() { defer race.Done(); o.AdvanceViewWatermark(tree, 2); cancel() }()
	go func() { defer race.Done(); o.AdvanceViewWatermark(tree, 3); o.DropViewWatermark(tree) }()
	race.Wait()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiters still blocked 10s after cancel+drop")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("waiter returned nil: watermark never reached the target")
		}
		if !errors.Is(err, ErrViewWatermarkDropped) && !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter returned %v, want ErrViewWatermarkDropped or context.Canceled", err)
		}
	}
}

// TestOracleDroppedViewStaysDropped: an advance that arrives after the drop —
// an applier round that read the catalog before it — brings neither the
// watermark nor the apply pair back, so the dropped view does not hold the
// prune horizon and a waiter still learns the view is gone.
func TestOracleDroppedViewStaysDropped(t *testing.T) {
	o := NewOracle()
	for i := 0; i < 5; i++ {
		o.FinishCommit(o.AllocateCommitTS())
	}
	tree := id.Tree(4)
	o.AdvanceViewApplied(tree, 2, 2)
	o.DropViewWatermark(tree)
	o.AdvanceViewWatermark(tree, 3)
	o.AdvanceViewApplied(tree, 4, 3)
	if wms := o.ViewWatermarks(); len(wms) != 0 {
		t.Fatalf("ViewWatermarks after drop and late advances = %v, want none", wms)
	}
	if applyTS, wm := o.ViewApplied(tree); applyTS != 0 || wm != 0 {
		t.Fatalf("ViewApplied after drop = (%d, %d), want (0, 0)", applyTS, wm)
	}
	if got := o.PruneHorizon(); got != 5 {
		t.Fatalf("horizon = %d, want the commit watermark 5: the dropped view holds it", got)
	}
	if err := o.WaitForViewWatermark(context.Background(), tree, 3); !errors.Is(err, ErrViewWatermarkDropped) {
		t.Fatalf("wait after late advances returned %v, want ErrViewWatermarkDropped", err)
	}
}

// TestOracleViewWatermarkHoldsHorizon pins the scrubber's retention contract:
// a deferred view's applied watermark participates in the prune horizon, so a
// timestamp read from ViewApplied can always be pinned with BeginSnapshotAt.
func TestOracleViewWatermarkHoldsHorizon(t *testing.T) {
	o := NewOracle()
	for i := 0; i < 5; i++ {
		ts := o.AllocateCommitTS()
		o.FinishCommit(ts)
	}
	tree := id.Tree(3)
	o.AdvanceViewWatermark(tree, 2)
	if got := o.PruneHorizon(); got != 2 {
		t.Fatalf("horizon with view watermark 2 = %d, want 2", got)
	}
	// Pinning the watermark succeeds; pinning below the horizon fails.
	h, ok := o.BeginSnapshotAt(2)
	if !ok {
		t.Fatal("BeginSnapshotAt(watermark) refused")
	}
	if _, ok := o.BeginSnapshotAt(1); ok {
		t.Fatal("BeginSnapshotAt below the horizon succeeded")
	}
	// The pinned snapshot holds the horizon even after the watermark advances.
	o.AdvanceViewWatermark(tree, 5)
	if got := o.PruneHorizon(); got != 2 {
		t.Fatalf("horizon with pinned ts 2 = %d, want 2", got)
	}
	o.EndSnapshot(h)
	if got := o.PruneHorizon(); got != 5 {
		t.Fatalf("horizon after unpin = %d, want 5 (watermark), got %d", got, got)
	}
	// Dropping the view releases its hold entirely.
	o.DropViewWatermark(tree)
	if got := o.PruneHorizon(); got != 5 {
		t.Fatalf("horizon after drop = %d, want 5 (commit watermark)", got)
	}
}

// TestOracleViewApplied pins the apply-pair contract: both components are
// monotonic, read atomically, and cleared by a drop.
func TestOracleViewApplied(t *testing.T) {
	o := NewOracle()
	tree := id.Tree(4)
	if a, w := o.ViewApplied(tree); a != 0 || w != 0 {
		t.Fatalf("fresh pair = (%d,%d), want (0,0)", a, w)
	}
	o.AdvanceViewApplied(tree, 7, 5)
	if a, w := o.ViewApplied(tree); a != 7 || w != 5 {
		t.Fatalf("pair = (%d,%d), want (7,5)", a, w)
	}
	// Stale updates are no-ops; watermark-only advances keep applyTS.
	o.AdvanceViewApplied(tree, 6, 4)
	if a, w := o.ViewApplied(tree); a != 7 || w != 5 {
		t.Fatalf("pair after stale update = (%d,%d), want (7,5)", a, w)
	}
	o.AdvanceViewWatermark(tree, 9)
	if a, w := o.ViewApplied(tree); a != 7 || w != 9 {
		t.Fatalf("pair after idle advance = (%d,%d), want (7,9)", a, w)
	}
	// AdvanceViewApplied wakes watermark waiters like AdvanceViewWatermark.
	done := make(chan error, 1)
	go func() { done <- o.WaitForViewWatermark(context.Background(), tree, 12) }()
	time.Sleep(5 * time.Millisecond)
	o.AdvanceViewApplied(tree, 13, 12)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter woken by AdvanceViewApplied returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AdvanceViewApplied did not wake watermark waiter")
	}
	o.DropViewWatermark(tree)
	if a, w := o.ViewApplied(tree); a != 0 || w != 0 {
		t.Fatalf("pair after drop = (%d,%d), want (0,0)", a, w)
	}
}

// TestOracleSnapshotNeverPassesHorizon drives committers, snapshot begin/end,
// and horizon computation concurrently and checks the registration invariant:
// a horizon computed at any moment is never above a snapshot that was already
// registered when it was computed (each goroutine checks its own snapshot's
// ts >= any horizon it observes while holding the snapshot).
func TestOracleSnapshotNeverPassesHorizon(t *testing.T) {
	o := NewOracle()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts := o.AllocateCommitTS()
				o.FinishCommit(ts)
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				ts, h := o.BeginSnapshot()
				if hor := o.PruneHorizon(); hor > ts {
					t.Errorf("horizon %d passed active snapshot ts %d", hor, ts)
				}
				o.EndSnapshot(h)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	// Let readers drain, then stop writers.
	wg.Add(1)
	go func() { defer wg.Done(); time.Sleep(50 * time.Millisecond); close(stop) }()
	wg.Wait()
}
