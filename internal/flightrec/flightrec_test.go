package flightrec

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/metrics"
)

// capture is a downstream tracer that remembers every forwarded event.
type capture struct {
	mu  sync.Mutex
	evs []metrics.Event
}

func (c *capture) TraceEvent(e metrics.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

func (c *capture) events() []metrics.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]metrics.Event(nil), c.evs...)
}

func TestRecorderStampsAndThreadsSpans(t *testing.T) {
	next := &capture{}
	r := New(Config{Next: next})

	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 7})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 7, Resource: "row/accounts/0", Mode: "X", Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventGroupCommit, Txn: 7, Rows: 1})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 7, Outcome: "commit"})

	evs := next.events()
	if len(evs) != 4 {
		t.Fatalf("forwarded %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.WallNs == 0 {
			t.Errorf("event %d: wall timestamp not stamped", i)
		}
		if e.Span != evs[0].Seq {
			t.Errorf("event %d: span %d, want the tx-begin seq %d", i, e.Span, evs[0].Seq)
		}
	}

	// After tx-end the span is retired: a stray event for the same txn ID (a
	// reused ID is a new transaction) gets no stale span.
	r.TraceEvent(metrics.Event{Type: metrics.EventFold, Txn: 7})
	if got := next.events()[4].Span; got != 0 {
		t.Errorf("post-end event inherited retired span %d, want 0", got)
	}

	// Engine-level events (no txn) carry no span.
	r.TraceEvent(metrics.Event{Type: metrics.EventGhostClean})
	if got := next.events()[5].Span; got != 0 {
		t.Errorf("engine event got span %d, want 0", got)
	}
}

func TestRecorderInterleavedSpans(t *testing.T) {
	r := New(Config{})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 1})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 2})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 1, Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 2, Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 1, Outcome: "commit"})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 2, Outcome: "abort"})

	spansByTxn := map[id.Txn]map[uint64]bool{}
	for _, e := range r.snapshot() {
		if e.Txn == 0 {
			continue
		}
		if spansByTxn[e.Txn] == nil {
			spansByTxn[e.Txn] = map[uint64]bool{}
		}
		spansByTxn[e.Txn][e.Span] = true
	}
	if len(spansByTxn[1]) != 1 || len(spansByTxn[2]) != 1 {
		t.Fatalf("each txn must have exactly one span, got txn1=%v txn2=%v", spansByTxn[1], spansByTxn[2])
	}
	for s := range spansByTxn[1] {
		if spansByTxn[2][s] {
			t.Fatalf("txn 1 and 2 share span %d", s)
		}
	}
}

func TestRecorderWrapStaysBounded(t *testing.T) {
	r := New(Config{Size: 64}) // rounds up to the per-shard minimum
	capacity := r.Capacity()
	total := capacity*3 + 17
	for i := 0; i < total; i++ {
		r.TraceEvent(metrics.Event{Type: metrics.EventGroupCommit, Rows: i})
	}
	if got := r.Recorded(); got != int64(total) {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	recs := r.snapshot()
	if len(recs) > capacity {
		t.Fatalf("snapshot holds %d events, capacity is %d", len(recs), capacity)
	}
	// The newest event must have survived the wrap.
	if last := recs[len(recs)-1].Seq; last != uint64(total) {
		t.Fatalf("newest surviving seq = %d, want %d", last, total)
	}
}

func TestTriggerRateLimitAndTimeline(t *testing.T) {
	var sink bytes.Buffer
	r := New(Config{Sink: &sink, MinDumpGap: time.Hour})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 3})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 3,
		Resource: "row/accounts/1", Mode: "X", Outcome: "deadlock"})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 3,
		Resource: "row/accounts/2", Mode: "X", Outcome: "deadlock"})

	if got := r.Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d, want 1 (second trigger inside MinDumpGap must be dropped)", got)
	}
	out := sink.String()
	for _, want := range []string{
		"vtxn flight record",
		"reason: lock deadlock (X on row/accounts/1)",
		"=== spans ===",
		"deadlock",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline dump missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONLSchema(t *testing.T) {
	r := New(Config{})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 9})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 9,
		Resource: "row/t/1", Mode: "E", Outcome: "granted", Dur: time.Millisecond})
	r.TraceEvent(metrics.Event{Type: metrics.EventFold, Txn: 9, Rows: 4})
	r.TraceEvent(metrics.Event{Type: metrics.EventRecovery, Phase: "redo", Dur: time.Millisecond})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d JSONL lines, want 4", len(lines))
	}
	// Every line is an object with the required keys; optional keys appear
	// only when set (omitempty).
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d does not parse: %v", i, err)
		}
		for _, k := range []string{"seq", "wall_ns", "type"} {
			if _, ok := m[k]; !ok {
				t.Errorf("line %d missing required key %q: %s", i, k, ln)
			}
		}
	}
	var wait Record
	if err := json.Unmarshal([]byte(lines[1]), &wait); err != nil {
		t.Fatal(err)
	}
	if wait.Type != "lock-wait" || wait.Resource != "row/t/1" || wait.Mode != "E" ||
		wait.Outcome != "granted" || wait.DurNs != int64(time.Millisecond) || wait.Txn != 9 {
		t.Errorf("lock-wait record round-trip mismatch: %+v", wait)
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[3]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Phase != "redo" || rec.Span != 0 || rec.Txn != 0 {
		t.Errorf("recovery record mismatch: %+v", rec)
	}
}

// TestRecorderConcurrent hammers the ring from many writers while dumps run —
// the -race proof that per-slot TryLock snapshotting is sound.
func TestRecorderConcurrent(t *testing.T) {
	r := New(Config{Size: 256})
	const writers, perWriter = 8, 2000

	stop := make(chan struct{})
	dumperDone := make(chan struct{})
	go func() {
		defer close(dumperDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.WriteTimeline(io.Discard)
				r.WriteJSONL(io.Discard)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := id.Txn(w + 1)
			for i := 0; i < perWriter; i++ {
				r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: txn})
				r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: txn, Outcome: "granted"})
				r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: txn, Outcome: "commit"})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-dumperDone

	if got, want := r.Recorded(), int64(writers*perWriter*3); got != want {
		t.Fatalf("Recorded() = %d, want %d", got, want)
	}
}
