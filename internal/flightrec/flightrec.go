// Package flightrec is the engine's always-on flight recorder: a bounded,
// sharded ring buffer holding the most recent trace events, rendered on
// demand (or automatically at the moment of failure) as a causal timeline or
// machine-readable JSONL.
//
// The recorder sits at the head of the tracer chain: every metrics.Event the
// engine emits is stamped with a process-monotonic sequence number, a wall
// timestamp, and a causal span ID, written into the ring, and forwarded to
// the downstream tracer (Options.Tracer). Old entries are simply overwritten
// — there is no sampling knob because history is bounded by construction,
// like SQL Server's system_health ring buffer.
package flightrec

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/metrics"
)

// DefaultSize is the ring capacity used when Config.Size is zero: enough for
// several seconds of history at full commit rate while staying under ~2 MiB.
const DefaultSize = 8192

// Config configures a Recorder.
type Config struct {
	// Size is the total ring capacity in events (rounded up per shard);
	// zero selects DefaultSize.
	Size int
	// Next is the downstream tracer events are forwarded to after recording
	// (the user's Options.Tracer); nil means record only.
	Next metrics.Tracer
	// Sink, when non-nil, receives an automatic human-readable dump when the
	// engine hits a failure trigger (deadlock, lock timeout, watchdog stall).
	Sink io.Writer
	// MinDumpGap rate-limits automatic dumps; zero selects 5s.
	MinDumpGap time.Duration
}

// slot is one ring cell. The mutex is uncontended except when a reader is
// snapshotting the exact cell a writer is overwriting; readers use TryLock
// and simply skip cells mid-write, so writers never block on dumps.
type slot struct {
	mu sync.Mutex
	ev metrics.Event
}

// shard is one stripe of the ring with its own claim cursor, so concurrent
// writers (different transactions) do not all bump a single hot cursor.
type shard struct {
	cursor atomic.Uint64
	_      [7]uint64 // keep cursors on distinct cache lines
	slots  []slot
}

// spanShard is one stripe of the txn → span table.
type spanShard struct {
	mu sync.Mutex
	m  map[id.Txn]uint64
}

// Recorder is the flight recorder. It implements metrics.Tracer.
type Recorder struct {
	seq    atomic.Uint64
	shards []shard
	mask   uint64 // len(shards) - 1

	spans []spanShard

	next metrics.Tracer

	sink       io.Writer
	minDumpGap time.Duration
	lastDumpNs atomic.Int64
	dumpMu     sync.Mutex
	dumps      atomic.Int64
}

const spanShards = 16

// New returns a recorder with cfg applied.
func New(cfg Config) *Recorder {
	size := cfg.Size
	if size <= 0 {
		size = DefaultSize
	}
	nshards := nextPow2(min(runtime.GOMAXPROCS(0), 16))
	perShard := nextPow2((size + nshards - 1) / nshards)
	if perShard < 64 {
		perShard = 64
	}
	r := &Recorder{
		shards:     make([]shard, nshards),
		mask:       uint64(nshards - 1),
		spans:      make([]spanShard, spanShards),
		next:       cfg.Next,
		sink:       cfg.Sink,
		minDumpGap: cfg.MinDumpGap,
	}
	if r.minDumpGap <= 0 {
		r.minDumpGap = 5 * time.Second
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, perShard)
	}
	for i := range r.spans {
		r.spans[i].m = make(map[id.Txn]uint64)
	}
	return r
}

// Capacity is the total ring capacity in events.
func (r *Recorder) Capacity() int {
	return len(r.shards) * len(r.shards[0].slots)
}

// Recorded is the total events ever recorded (the high-water sequence).
func (r *Recorder) Recorded() int64 { return int64(r.seq.Load()) }

// Dumps is the number of dumps written (automatic triggers and explicit
// timeline/JSONL writes).
func (r *Recorder) Dumps() int64 { return r.dumps.Load() }

// TraceEvent implements metrics.Tracer: stamp, record, forward, and — for
// failed lock waits — fire the automatic failure dump.
func (r *Recorder) TraceEvent(e metrics.Event) {
	seq := r.seq.Add(1)
	e.Seq = seq
	if e.WallNs == 0 {
		e.WallNs = time.Now().UnixNano()
	}
	e.Span = r.resolveSpan(seq, &e)

	// Shard by transaction so one txn's events share a stripe; engine-level
	// events stripe by sequence.
	h := uint64(e.Txn)
	if h == 0 {
		h = seq
	}
	sh := &r.shards[h&r.mask]
	s := &sh.slots[sh.cursor.Add(1)&uint64(len(sh.slots)-1)]
	s.mu.Lock()
	s.ev = e
	s.mu.Unlock()

	if r.next != nil {
		r.next.TraceEvent(e)
	}

	if r.sink != nil && e.Type == metrics.EventLockWait &&
		(e.Outcome == "deadlock" || e.Outcome == "timeout") {
		r.Trigger("lock " + e.Outcome + " (" + e.Mode + " on " + e.Resource + ")")
	}
}

// SpanOf returns the live causal span of txn (the seq of its tx-begin), or
// zero when the transaction is unknown or already ended. The commit path uses
// it to thread the originating span across the async deferred-maintenance
// boundary before tx-end retires the table entry.
func (r *Recorder) SpanOf(txn id.Txn) uint64 {
	if r == nil || txn == 0 {
		return 0
	}
	ss := &r.spans[uint64(txn)%spanShards]
	ss.mu.Lock()
	span := ss.m[txn]
	ss.mu.Unlock()
	return span
}

// resolveSpan returns the causal span for e and maintains the span table: a
// transaction's span is the sequence number of its tx-begin record, attached
// to every later event carrying its txn ID and retired at tx-end.
func (r *Recorder) resolveSpan(seq uint64, e *metrics.Event) uint64 {
	if e.Txn == 0 {
		return 0
	}
	ss := &r.spans[uint64(e.Txn)%spanShards]
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch e.Type {
	case metrics.EventTxBegin:
		ss.m[e.Txn] = seq
		return seq
	case metrics.EventTxEnd:
		span := ss.m[e.Txn]
		delete(ss.m, e.Txn)
		return span
	default:
		return ss.m[e.Txn]
	}
}

// snapshot collects the ring's live records ordered by sequence. Cells being
// overwritten at this instant are skipped rather than waited on.
func (r *Recorder) snapshot() []metrics.Event {
	out := make([]metrics.Event, 0, r.Capacity())
	for i := range r.shards {
		sh := &r.shards[i]
		for j := range sh.slots {
			s := &sh.slots[j]
			if !s.mu.TryLock() {
				continue
			}
			ev := s.ev
			s.mu.Unlock()
			if ev.Seq != 0 {
				out = append(out, ev)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// Trigger writes an automatic human-readable dump to the configured sink,
// rate-limited to one per MinDumpGap. Safe to call from event paths: the ring
// is snapshotted, never locked wholesale.
func (r *Recorder) Trigger(reason string) {
	if r.sink == nil {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastDumpNs.Load()
	if now-last < int64(r.minDumpGap) || !r.lastDumpNs.CompareAndSwap(last, now) {
		return
	}
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	r.writeTimeline(r.sink, reason)
	r.dumps.Add(1)
}

// WriteTimeline renders the recorded history as a human-readable causal
// timeline: one line per event plus a per-span summary.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	err := r.writeTimeline(w, "explicit dump")
	r.dumps.Add(1)
	return err
}

func (r *Recorder) writeTimeline(w io.Writer, reason string) error {
	recs := r.snapshot()
	bw := bufio.NewWriter(w)
	if len(recs) == 0 {
		fmt.Fprintf(bw, "=== vtxn flight record: empty (reason: %s) ===\n", reason)
		return bw.Flush()
	}
	base := recs[0].WallNs
	fmt.Fprintf(bw, "=== vtxn flight record: %d events (seq %d..%d, window %s, reason: %s) ===\n",
		len(recs), recs[0].Seq, recs[len(recs)-1].Seq,
		time.Duration(recs[len(recs)-1].WallNs-base), reason)
	fmt.Fprintf(bw, "%10s %12s %-10s event\n", "seq", "t+ms", "span")
	for _, e := range recs {
		span := "-"
		switch {
		case e.Span != 0:
			span = fmt.Sprintf("s%d", e.Span)
		case len(e.Spans) > 0:
			// Multi-parent event (coalesced deferred fold / watermark advance):
			// name the first originating span and how many more contributed.
			span = fmt.Sprintf("s%d", e.Spans[0])
			if len(e.Spans) > 1 {
				span += fmt.Sprintf("+%d", len(e.Spans)-1)
			}
		}
		fmt.Fprintf(bw, "%10d %+12.3f %-10s %s\n",
			e.Seq, float64(e.WallNs-base)/1e6, span, e.String())
	}
	writeSpanSummary(bw, recs, base)
	return bw.Flush()
}

// spanInfo accumulates one span's story for the summary section.
type spanInfo struct {
	span        uint64
	txn         id.Txn
	events      int
	firstNs     int64
	lastNs      int64
	waits       int
	failedWaits int
	foldRows    int
	outcome     string
	// visibleIn names the views whose watermark advances credited this span
	// (the commit's effects became readable there).
	visibleIn []string
}

func writeSpanSummary(w io.Writer, recs []metrics.Event, base int64) {
	bydSpan := make(map[uint64]*spanInfo)
	var order []uint64
	get := func(span uint64, e metrics.Event) *spanInfo {
		si := bydSpan[span]
		if si == nil {
			si = &spanInfo{span: span, txn: e.Txn, firstNs: e.WallNs}
			bydSpan[span] = si
			order = append(order, span)
		}
		return si
	}
	for _, e := range recs {
		// Multi-parent events (deferred folds, watermark advances) credit each
		// originating span: the commit's story continues past tx-end.
		for _, span := range e.Spans {
			si := get(span, e)
			si.events++
			si.lastNs = e.WallNs
			if e.Type == metrics.EventWatermarkAdvance {
				si.visibleIn = append(si.visibleIn, e.Resource)
			}
		}
		if e.Span == 0 {
			continue
		}
		si := get(e.Span, e)
		si.events++
		si.lastNs = e.WallNs
		switch e.Type {
		case metrics.EventLockWait:
			si.waits++
			if e.Outcome != "granted" {
				si.failedWaits++
			}
		case metrics.EventFold:
			si.foldRows += e.Rows
		case metrics.EventTxEnd:
			si.outcome = e.Outcome
		}
	}
	if len(order) == 0 {
		return
	}
	fmt.Fprintf(w, "=== spans ===\n")
	for _, sp := range order {
		si := bydSpan[sp]
		out := si.outcome
		if out == "" {
			out = "open"
		}
		visible := ""
		if len(si.visibleIn) > 0 {
			seen := map[string]bool{}
			var views []string
			for _, v := range si.visibleIn {
				if !seen[v] {
					seen[v] = true
					views = append(views, v)
				}
			}
			visible = ", visible in: " + strings.Join(views, ", ")
		}
		fmt.Fprintf(w, "  s%-8d %s: %d events +%.3fms..+%.3fms, %d lock waits (%d failed), %d rows folded, end: %s%s\n",
			si.span, si.txn, si.events,
			float64(si.firstNs-base)/1e6, float64(si.lastNs-base)/1e6,
			si.waits, si.failedWaits, si.foldRows, out, visible)
	}
}

// Record is the JSONL form of one recorded event. The field set is a stable
// schema (golden-tested like the metrics snapshot); only additions are
// allowed.
type Record struct {
	Seq    uint64 `json:"seq"`
	WallNs int64  `json:"wall_ns"`
	Span   uint64 `json:"span,omitempty"`
	// Spans are the originating commits' spans for events downstream of the
	// async deferred-maintenance boundary (multi-parent for coalesced
	// batches).
	Spans    []uint64 `json:"spans,omitempty"`
	Type     string   `json:"type"`
	Txn      uint64   `json:"txn,omitempty"`
	DurNs    int64    `json:"dur_ns,omitempty"`
	Resource string   `json:"resource,omitempty"`
	Mode     string   `json:"mode,omitempty"`
	Outcome  string   `json:"outcome,omitempty"`
	Rows     int      `json:"rows,omitempty"`
	Phase    string   `json:"phase,omitempty"`
}

// WriteJSONL renders the recorded history as machine-readable JSON Lines,
// one Record per line, ordered by sequence.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	recs := r.snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range recs {
		rec := Record{
			Seq:      e.Seq,
			WallNs:   e.WallNs,
			Span:     e.Span,
			Spans:    e.Spans,
			Type:     e.Type.String(),
			Txn:      uint64(e.Txn),
			DurNs:    int64(e.Dur),
			Resource: e.Resource,
			Mode:     e.Mode,
			Outcome:  e.Outcome,
			Rows:     e.Rows,
			Phase:    e.Phase,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	r.dumps.Add(1)
	return bw.Flush()
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
