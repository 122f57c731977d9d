package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/id"
)

// EventType identifies what an Event reports.
type EventType uint8

const (
	// EventTxBegin fires when a user transaction starts.
	EventTxBegin EventType = iota + 1
	// EventTxEnd fires when a user transaction commits or rolls back; Dur is
	// its total lifetime and Outcome "commit" or "abort".
	EventTxEnd
	// EventLockWait fires when a blocked lock acquisition resolves; Dur is
	// the time blocked and Outcome "granted", "deadlock", "timeout", or
	// "canceled".
	EventLockWait
	// EventFold fires after a commit-time escrow fold; Rows is the view rows
	// folded.
	EventFold
	// EventGroupCommit fires after a physical WAL flush; Rows is the records
	// in the batch.
	EventGroupCommit
	// EventRecovery fires once per restart phase; Phase is "analysis",
	// "redo", or "undo".
	EventRecovery
	// EventGhostClean fires after a ghost-cleaner sweep; Rows is the ghosts
	// erased.
	EventGhostClean
	// EventStall fires when the watchdog detects a stall signature; Phase is
	// the signature key ("wal-flush", "lock-convoy", "escrow-backlog",
	// "ghost-starvation"), Resource a human-readable detail, and Dur how long
	// the condition has persisted.
	EventStall
	// EventSnapshotBegin fires when a snapshot transaction pins its read
	// timestamp; Rows carries the pinned timestamp (truncated to int).
	EventSnapshotBegin
	// EventMVCCPrune fires after a version-chain pruner sweep that folded
	// versions; Rows is the versions pruned.
	EventMVCCPrune
	// EventDeferredApply fires after the deferred-view applier folds a round
	// of coalesced deltas into one view; Resource is the view name, Rows the
	// groups folded, and Dur the round's fold time. Spans carries the causal
	// spans of the originating commits whose deltas the fold applied.
	EventDeferredApply
	// EventDeferredPublish fires when a commit hands its deferred view deltas
	// to the background applier; Rows is the group deltas published. The
	// transaction's span links the publish to its tx-begin.
	EventDeferredPublish
	// EventWatermarkAdvance fires when the applier advances one deferred
	// view's watermark after folding; Resource is the view name, Rows the new
	// watermark (truncated to int), Dur the oldest folded commit's
	// commit-to-visible latency, and Spans the originating commits now
	// visible in the view.
	EventWatermarkAdvance
	// EventScrubDivergence fires when the online consistency scrubber finds a
	// view row disagreeing with its recompute; Resource is the view name,
	// Phase the diverging group key (human-readable), Outcome the
	// expected-vs-actual detail followed by what the lock-based read path
	// returns for the group, and Rows the divergences in the slice.
	EventScrubDivergence
)

// String names the event type.
func (t EventType) String() string {
	switch t {
	case EventTxBegin:
		return "tx-begin"
	case EventTxEnd:
		return "tx-end"
	case EventLockWait:
		return "lock-wait"
	case EventFold:
		return "fold"
	case EventGroupCommit:
		return "group-commit"
	case EventRecovery:
		return "recovery"
	case EventGhostClean:
		return "ghost-clean"
	case EventStall:
		return "stall"
	case EventSnapshotBegin:
		return "snapshot-begin"
	case EventMVCCPrune:
		return "mvcc-prune"
	case EventDeferredApply:
		return "deferred-apply"
	case EventDeferredPublish:
		return "deferred-publish"
	case EventWatermarkAdvance:
		return "watermark-advance"
	case EventScrubDivergence:
		return "scrub-divergence"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(t))
	}
}

// Event is one engine trace event. It is passed by value and holds no
// references into engine state, so a Tracer may retain it.
type Event struct {
	Type EventType
	// Seq is a process-monotonic sequence number stamped by the flight
	// recorder (zero for events that never pass through it). WallNs is the
	// wall-clock timestamp (UnixNano): an emitter that has just read the clock
	// fills it in, the flight recorder stamps the rest.
	Seq    uint64
	WallNs int64
	// Span is the causal span ID linking every event of one transaction's
	// lifetime (its value is the Seq of the transaction's tx-begin record).
	// Zero for engine-level events, stamped by the flight recorder.
	Span uint64
	// Spans lists the originating commits' span IDs for events downstream of
	// the async deferred-maintenance boundary (applier folds, watermark
	// advances): a coalesced batch has several causal parents. Set by the
	// emitter, preserved by the flight recorder.
	Spans []uint64
	// Txn is the acting transaction (zero for engine-level events).
	Txn id.Txn
	// Dur is the event's duration: wait time, fold time, flush time, phase
	// time, or — for EventTxEnd — the transaction's whole lifetime.
	Dur time.Duration
	// Resource and Mode describe the contested lock for EventLockWait.
	Resource string
	Mode     string
	// Outcome is "granted"/"deadlock"/"timeout"/"canceled" for lock waits and
	// "commit"/"abort" for transaction ends.
	Outcome string
	// Rows counts folded view rows, group-commit batch records, or erased
	// ghosts.
	Rows int
	// Phase is the recovery phase for EventRecovery.
	Phase string
}

// String renders the event for trace logs.
func (e Event) String() string {
	switch e.Type {
	case EventLockWait:
		return fmt.Sprintf("%s %s %s on %s: %s after %s", e.Type, e.Txn, e.Mode, e.Resource, e.Outcome, e.Dur)
	case EventTxEnd:
		return fmt.Sprintf("%s %s: %s after %s", e.Type, e.Txn, e.Outcome, e.Dur)
	case EventFold:
		return fmt.Sprintf("%s %s: %d rows in %s", e.Type, e.Txn, e.Rows, e.Dur)
	case EventGroupCommit:
		return fmt.Sprintf("%s: %d records in %s", e.Type, e.Rows, e.Dur)
	case EventRecovery:
		return fmt.Sprintf("%s %s: %s", e.Type, e.Phase, e.Dur)
	case EventGhostClean:
		return fmt.Sprintf("%s: %d erased in %s", e.Type, e.Rows, e.Dur)
	case EventStall:
		return fmt.Sprintf("%s %s: %s (for %s)", e.Type, e.Phase, e.Resource, e.Dur)
	case EventSnapshotBegin:
		return fmt.Sprintf("%s %s: read-ts %d", e.Type, e.Txn, e.Rows)
	case EventMVCCPrune:
		return fmt.Sprintf("%s: %d versions in %s", e.Type, e.Rows, e.Dur)
	case EventDeferredApply:
		return fmt.Sprintf("%s %s: %d groups in %s", e.Type, e.Resource, e.Rows, e.Dur)
	case EventDeferredPublish:
		return fmt.Sprintf("%s %s: %d groups", e.Type, e.Txn, e.Rows)
	case EventWatermarkAdvance:
		return fmt.Sprintf("%s %s: watermark %d (oldest visible after %s)", e.Type, e.Resource, e.Rows, e.Dur)
	case EventScrubDivergence:
		return fmt.Sprintf("%s %s group %s: %s", e.Type, e.Resource, e.Phase, e.Outcome)
	default:
		return fmt.Sprintf("%s %s", e.Type, e.Txn)
	}
}

// Tracer receives engine trace events. Implementations must be safe for
// concurrent use and should return quickly: events fire inline on engine
// paths (a slow tracer slows the engine, never corrupts it).
type Tracer interface {
	TraceEvent(Event)
}

// SlowLogger is a Tracer that prints events at or above a duration threshold
// — the "slow query log" for transactions, lock waits, and folds. Zero-Dur
// event types (EventTxBegin) are suppressed; EventRecovery and EventStall
// always print, as do lock waits that resolved in failure
// (deadlock/timeout/cancel) no matter how quickly they did so.
type SlowLogger struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	prefix    string
}

// NewSlowLogger returns a SlowLogger writing events slower than threshold to
// w, each line prefixed with prefix.
func NewSlowLogger(w io.Writer, threshold time.Duration, prefix string) *SlowLogger {
	return &SlowLogger{w: w, threshold: threshold, prefix: prefix}
}

// TraceEvent implements Tracer.
func (l *SlowLogger) TraceEvent(e Event) {
	// A failed lock wait is interesting regardless of how fast it failed: a
	// deadlock victim may be picked microseconds into its wait, and dropping
	// it under the threshold hides the abort the operator is hunting for.
	failedWait := e.Type == EventLockWait && e.Outcome != "" && e.Outcome != "granted"
	// A scrub divergence is a broken invariant: always worth a line, no
	// matter how fast the slice that found it ran.
	alwaysPrint := e.Type == EventRecovery || e.Type == EventStall ||
		e.Type == EventScrubDivergence || failedWait
	if !alwaysPrint && (e.Dur < l.threshold || e.Type == EventTxBegin) {
		return
	}
	l.mu.Lock()
	fmt.Fprintf(l.w, "%strace: %s\n", l.prefix, e)
	l.mu.Unlock()
}
