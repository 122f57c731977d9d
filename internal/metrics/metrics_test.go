package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
)

// TestHistogramBasics checks counts, percentile monotonicity, and snapshots.
func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram not zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Percentile(0.50), h.Percentile(0.99)
	if p50 <= 0 || p99 < p50 || h.Max() < p99 {
		t.Fatalf("percentiles not monotone: p50=%v p99=%v max=%v", p50, p99, h.Max())
	}
	if h.Max() != time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	s := h.Snap()
	if s.Count != 1000 || s.MaxNs != h.Max().Nanoseconds() || s.MeanNs <= 0 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	if mean := h.Mean(); mean < 450*time.Microsecond || mean > 560*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		v := h.Percentile(q)
		if v < prev {
			t.Fatalf("percentiles not monotonic at %v", q)
		}
		prev = v
	}
}

// TestHistogramResolution: log buckets keep ~5% resolution, and extremes
// clamp without panicking.
func TestHistogramResolution(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Microsecond)
	if got := h.Percentile(0.5); got < 9*time.Microsecond || got > 11*time.Microsecond {
		t.Fatalf("10µs recorded as %v", got)
	}
	h.Observe(1)
	h.Observe(10 * time.Minute)
	if h.Count() != 3 {
		t.Fatal("count")
	}
}

// TestRegistryConcurrentHammer drives every registry surface from 8
// goroutines while snapshots are taken concurrently; run under -race this is
// the registry's safety proof.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	r.Views.Sync([]id.Tree{1, 2, 3})
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d := time.Duration(i%512+1) * time.Microsecond
				r.Txn.Begin.Observe(d)
				r.Txn.Apply.Observe(d)
				r.Txn.Fold.Observe(d)
				r.Txn.CommitWait.Observe(d)
				r.Lock.Wait.Observe(d)
				r.Engine.Commits.Add(1)
				if v := r.Views.Get(id.Tree(i % 5)); v != nil { // trees 0 and 4 hold no view
					v.FoldRows.Add(1)
					v.CommitToVisible.Observe(d)
				}
				r.Escrow.ObserveFold(i % 9)
				r.Escrow.FoldAborts.Add(1)
				r.WAL.Appends.Add(1)
				r.WAL.CoalescedSyncs.Add(1)
				r.WAL.ObserveBatch(int64(i % 33))
				r.WAL.Flush.Observe(d)
				r.WAL.Fsync.Observe(d)
				r.Ghost.ObservePass(i % 7)
			}
		}(w)
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := json.Marshal(r.Snap()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	s := r.Snap()
	const total = workers * iters
	if s.Txn.Begin.Count != total {
		t.Fatalf("begin count = %d, want %d", s.Txn.Begin.Count, total)
	}
	if s.Escrow.FoldBatches != total || s.Escrow.FoldRows == 0 {
		t.Fatalf("escrow folds: %+v", s.Escrow)
	}
	if s.WAL.Flushes != total || s.WAL.BatchMax != 32 {
		t.Fatalf("wal: %+v", s.WAL)
	}
	if s.Engine.Commits != total {
		t.Fatalf("engine commits = %d, want %d", s.Engine.Commits, total)
	}
	if got := r.Views.Get(1).FoldRows.Load(); got != workers*iters/5 {
		t.Fatalf("view 1 fold rows = %d, want %d", got, workers*iters/5)
	}
}

// TestEventString covers the trace rendering used by SlowLogger.
func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Type: EventLockWait, Mode: "X", Resource: "r", Outcome: "granted", Dur: time.Millisecond}, "lock-wait"},
		{Event{Type: EventFold, Rows: 3, Dur: time.Millisecond}, "3 rows"},
		{Event{Type: EventGroupCommit, Rows: 9, Dur: time.Millisecond}, "9 records"},
		{Event{Type: EventRecovery, Phase: "redo", Dur: time.Second}, "redo"},
		{Event{Type: EventGhostClean, Rows: 2}, "2 erased"},
	}
	for _, c := range cases {
		if got := c.e.String(); !contains(got, c.want) {
			t.Fatalf("%v rendered %q, want substring %q", c.e.Type, got, c.want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
