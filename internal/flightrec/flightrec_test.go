package flightrec

import (
	"bytes"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// records parses r's JSONL dump.
func records(t *testing.T, r *Recorder) []Record {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var out []Record
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

func TestRecorderStampsAndThreadsSpans(t *testing.T) {
	next := &capture{}
	r := New(Config{Next: next})

	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 7})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 7, Resource: "row/accounts/0", Mode: "X", Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventGroupCommit, Txn: 7, Rows: 1})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 7, Outcome: "commit"})
	// Engine-level events (no txn) carry no span.
	r.TraceEvent(metrics.Event{Type: metrics.EventGhostClean})

	evs := next.events()
	if len(evs) != 5 {
		t.Fatalf("forwarded %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.WallNs == 0 {
			t.Errorf("event %d: wall timestamp not stamped", i)
		}
	}
	for i, rec := range records(t, r) {
		if rec.Span != rec.Txn {
			t.Errorf("record %d (%s): span %d, want its transaction ID %d", i, rec.Type, rec.Span, rec.Txn)
		}
	}
}

func TestRecorderInterleavedSpans(t *testing.T) {
	r := New(Config{})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 1})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: 2})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 1, Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventGroupCommit, Rows: 2})
	r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 2, Outcome: "granted"})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 1, Outcome: "commit"})
	r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: 2, Outcome: "abort"})

	for _, rec := range records(t, r) {
		if rec.Span != rec.Txn {
			t.Errorf("%s of txn %d carries span %d", rec.Type, rec.Txn, rec.Span)
		}
	}
	var timeline bytes.Buffer
	if err := r.WriteTimeline(&timeline); err != nil {
		t.Fatal(err)
	}
	_, summary, _ := strings.Cut(timeline.String(), "=== spans ===\n")
	for _, want := range []string{
		"s1        3 events",
		"0 rows folded, end: commit",
		"s2        3 events",
		"0 rows folded, end: abort",
	} {
		if !strings.Contains(summary, want) {
			t.Errorf("span summary missing %q:\n%s", want, summary)
		}
	}
	if got := strings.Count(summary, "\n"); got != 2 {
		t.Errorf("span summary has %d lines, want one per transaction:\n%s", got, summary)
	}
}

// TestRecorderDumpIsNewestWindow pins what a dump holds once the ring has
// wrapped: exactly the newest Capacity events, contiguous in Seq, however
// the events are spread over transactions and however many CPUs trace them.
func TestRecorderDumpIsNewestWindow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := New(Config{Size: 1024})
	capacity := r.Capacity()
	const busy, quiet = 5000, 100
	for i := 0; i < busy; i++ {
		r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 1, Outcome: "granted"})
		if i%(busy/quiet) == 0 {
			r.TraceEvent(metrics.Event{Type: metrics.EventLockWait, Txn: 2, Outcome: "granted"})
		}
	}
	total := uint64(busy + quiet)
	recs := r.snapshot()
	if len(recs) != capacity {
		t.Fatalf("dump holds %d events (seq %d..%d), want the newest %d",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq, capacity)
	}
	for i, e := range recs {
		if want := total - uint64(capacity) + 1 + uint64(i); e.Seq != want {
			t.Fatalf("dump event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestRecorderWrapStaysBounded(t *testing.T) {
	r := New(Config{Size: 64})
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

// BenchmarkRecorderTxn is the recorder's cost for one transaction's events:
// tx-begin, a commit fold, a group commit and tx-end. Run it with -cpu 1,2;
// in parallel each goroutine traces its own transactions.
func BenchmarkRecorderTxn(b *testing.B) {
	r := New(Config{})
	var goroutines atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		txn := id.Txn(goroutines.Add(1) << 32)
		for pb.Next() {
			txn++
			r.TraceEvent(metrics.Event{Type: metrics.EventTxBegin, Txn: txn})
			r.TraceEvent(metrics.Event{Type: metrics.EventFold, Txn: txn, Rows: 2, Dur: time.Microsecond})
			r.TraceEvent(metrics.Event{Type: metrics.EventGroupCommit, Txn: txn, Rows: 3, Dur: time.Microsecond})
			r.TraceEvent(metrics.Event{Type: metrics.EventTxEnd, Txn: txn, Outcome: "commit", Dur: time.Millisecond})
		}
	})
}
