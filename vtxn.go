// Package vtxn is an embedded transactional storage engine with indexed
// (materialized) views maintained immediately inside user transactions — a
// from-scratch reproduction of Graefe & Zwilling, "Transaction support for
// indexed views" (SIGMOD 2004).
//
// The engine provides:
//
//   - base tables stored as B-trees, with secondary indexes;
//   - indexed views — projection/join views and GROUP BY aggregate views —
//     kept exactly consistent with their base tables at every commit;
//   - the paper's escrow ("IncDec") locking protocol for aggregate views:
//     concurrent transactions update the same SUM/COUNT view row without
//     blocking each other, with commit-time folds and logical undo;
//   - ghost records managed by system transactions for group creation and
//     removal, cleaned asynchronously;
//   - a write-ahead log with group commit, snapshot checkpoints, and
//     ARIES-style crash recovery (redo + compensated logical undo);
//   - lock-based isolation levels (ReadCommitted, RepeatableRead,
//     Serializable) with deadlock detection and lock escalation;
//   - multi-version Snapshot isolation: readers pin a read timestamp at
//     BeginTx and resolve rows against short version chains with zero
//     lock-manager traffic, never blocking (or blocked by) escrow writers.
//     TxOptions.ReadOnly selects the fully log- and lock-free read path;
//   - a deferred view-maintenance tier (StrategyDeferred): commits publish
//     fold deltas to a background applier that batches, coalesces, and folds
//     them moments later, keeping writers entirely off the view. Each
//     deferred view carries an applied watermark (DB.ViewWatermark);
//     DB.WaitForViewWatermark(ctx, view, tx.CommitTS()) is the
//     read-your-writes barrier.
//
// Quickstart — definitions use the named-column style: name the source
// relation and reference its columns by name; the catalog resolves them at
// CREATE VIEW time:
//
//	db, err := vtxn.Open(dir, vtxn.Options{})
//	...
//	db.CreateTable("accounts", []vtxn.Column{
//	    {Name: "id", Kind: vtxn.KindInt64},
//	    {Name: "branch", Kind: vtxn.KindInt64},
//	    {Name: "balance", Kind: vtxn.KindInt64},
//	}, []int{0})
//	db.CreateIndexedView(vtxn.ViewDef{
//	    Name: "branch_totals", Kind: vtxn.ViewAggregate,
//	    Source:  "accounts",
//	    GroupBy: []string{"branch"},
//	    Aggs:    []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
//	})
//	tx, _ := db.BeginTx(ctx, vtxn.TxOptions{Isolation: vtxn.ReadCommitted})
//	tx.Insert("accounts", vtxn.Row{vtxn.Int(1), vtxn.Int(7), vtxn.Int(100)})
//	tx.Commit()
//
// Views can also stack: a ViewDef whose Source names another aggregate view
// forms a dependency DAG maintained in topological order, with at most one
// fold per (view,group) per transaction regardless of how many base-row
// changes funnel through a shared ancestor:
//
//	db.CreateIndexedView(vtxn.ViewDef{
//	    Name: "region_totals", Kind: vtxn.ViewAggregate,
//	    Source:  "branch_totals",
//	    GroupBy: []string{"region"},
//	    Aggs:    []vtxn.AggSpec{vtxn.Sum("sum_balance")},
//	})
//
// (Aggregate output columns are named — Sum("balance") publishes
// "sum_balance" unless AggSpec.Name overrides it.) The positional fields
// GroupByCols and ProjectCols are the catalog's resolved form: CREATE VIEW
// fills them from the names and the log stores them, and a flat view may set
// them directly.
//
// Observability: DB.Metrics() is the one counter API, a structured snapshot
// of every engine counter and latency summary. DB.Describe renders its
// headline counters as text, MetricsHandler serves the same data as
// Prometheus text (plus net/http/pprof under /debug/pprof/), and
// Options.Tracer streams structured engine events (lock waits, folds, group
// commits) to a hook such as NewSlowLogger.
//
// Online verification: a background scrubber continuously re-checks every
// view against a recompute over its source at MVCC snapshot timestamps —
// lock-free, paced by a row budget, one whole view per Options.ScrubInterval. A confirmed divergence emits TraceScrubDivergence
// naming (view, group, expected, actual), auto-dumps the flight record, and
// trips the watchdog's scrub-divergence signature; DB.ScrubNow forces an
// unpaced full pass on demand. DB.CheckConsistency remains the offline,
// quiescent twin (CheckConsistencyCtx adds per-view progress callbacks). Both
// compute a view's expected contents with one routine and judge them against
// the stored rows with one comparator, so they report a divergence alike.
//
// Forensics: an always-on flight recorder keeps the most recent engine
// events in a bounded ring, each stamped with a sequence number and wall
// timestamp. An event's causal span is its transaction ID, tying a
// transaction's begin, lock waits, folds, group commit, and end together.
// DB.DumpFlightRecord renders the history as a human-readable timeline,
// DB.WriteFlightRecordJSONL as JSON Lines; Options.FlightSink receives an
// automatic dump the moment a deadlock, lock timeout, or watchdog-detected
// stall occurs. A positive Options.WatchdogInterval runs a background stall
// detector (WAL flush not advancing, lock-shard convoy, escrow fold backlog,
// ghost-cleaner starvation) that reports via EventStall trace events and the
// watchdog metrics section.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the reproduced
// evaluation.
package vtxn

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Core engine types.
type (
	// DB is a database instance. Open one with Open.
	DB = core.DB
	// Tx is a transaction handle (not safe for concurrent goroutines).
	Tx = core.Tx
	// Options configure Open. The zero value runs the flight recorder, the
	// version pruner and the scrubber at their defaults; the ghost cleaner
	// and the stall watchdog run only with a positive interval.
	Options = core.Options
	// ViewRow is one scanned view row: key columns plus results.
	ViewRow = core.ViewRow
	// Savepoint marks a statement-level rollback point (Tx.Savepoint /
	// Tx.RollbackTo).
	Savepoint = core.Savepoint
	// ViewInfo describes a view's maintenance plan (DB.DescribeView).
	ViewInfo = core.ViewInfo
	// TxOptions configure one transaction started with DB.BeginTx.
	TxOptions = core.TxOptions
	// CheckProgress is one per-view progress report delivered by
	// DB.CheckConsistencyCtx after each view verifies clean.
	CheckProgress = core.CheckProgress
)

// Observability types (see the metrics package and DESIGN.md §7).
type (
	// MetricsSnapshot is the structured result of DB.Metrics(): every engine
	// counter and latency summary at one instant, with a JSON-stable schema.
	MetricsSnapshot = metrics.Snapshot
	// Tracer receives engine trace events when set as Options.Tracer.
	// Implementations must be safe for concurrent use and return quickly.
	Tracer = metrics.Tracer
	// TraceEvent is one engine trace event delivered to a Tracer. Its causal
	// span is its Txn; the applier's events list the commits that caused
	// them in Spans.
	TraceEvent = metrics.Event
	// TraceEventType identifies a TraceEvent's kind.
	TraceEventType = metrics.EventType
)

// Trace event types.
const (
	// TraceTxBegin marks a transaction's begin. A read-only snapshot
	// transaction (TxOptions.ReadOnly) emits none.
	TraceTxBegin = metrics.EventTxBegin
	// TraceTxEnd marks a transaction's commit or abort (Outcome); Dur is its
	// whole lifetime, so it began at WallNs − Dur. It is the only event a
	// read-only snapshot transaction emits, and there Rows is the read
	// timestamp it pinned.
	TraceTxEnd       = metrics.EventTxEnd
	TraceLockWait    = metrics.EventLockWait
	TraceFold        = metrics.EventFold
	TraceGroupCommit = metrics.EventGroupCommit
	TraceRecovery    = metrics.EventRecovery
	TraceGhostClean  = metrics.EventGhostClean
	TraceStall       = metrics.EventStall
	// TraceSnapshotBegin marks a snapshot transaction pinning its read
	// timestamp (Rows); a read-only one emits none, its TraceTxEnd carries
	// the timestamp. TraceMVCCPrune marks a version-chain prune pass.
	TraceSnapshotBegin = metrics.EventSnapshotBegin
	TraceMVCCPrune     = metrics.EventMVCCPrune
	// TraceDeferredApply marks the deferred-view applier folding one round of
	// coalesced deltas into a view; TraceDeferredPublish a commit handing its
	// deferred deltas to the applier; TraceWatermarkAdvance a view's applied
	// watermark advancing after a fold (stamped with the originating commits'
	// spans — the end of the commit→publish→fold→visible causal chain).
	TraceDeferredApply    = metrics.EventDeferredApply
	TraceDeferredPublish  = metrics.EventDeferredPublish
	TraceWatermarkAdvance = metrics.EventWatermarkAdvance
	// TraceScrubDivergence marks the online scrubber confirming a stored view
	// row that disagrees with a recompute over its source — a broken
	// invariant, naming (view, group, expected, actual).
	TraceScrubDivergence = metrics.EventScrubDivergence
)

// NewSlowLogger returns a Tracer that logs events at or above threshold —
// a slow-transaction/lock-wait log. Use it as Options.Tracer.
var NewSlowLogger = metrics.NewSlowLogger

// MetricsHandler returns an http.Handler serving db's metrics in Prometheus
// text exposition format (plain net/http; mount it wherever you like):
//
//	http.Handle("/metrics", vtxn.MetricsHandler(db))
//
// The handler is a mux: the root path serves the metrics text, /debug/pprof/
// serves the standard net/http/pprof profiles (each background task's
// goroutine carries a vtxn=<task> label), /debug/flightrec streams the flight record as JSONL, /debug/freshness serves the per-view
// freshness section (staleness gauges and commit-to-visible latency
// summaries) as JSON, and /debug/scrub serves the online scrubber's section
// (coverage, pace, divergences) as JSON.
func MetricsHandler(db *DB) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flightrec", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		if err := db.WriteFlightRecordJSONL(w); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("/debug/freshness", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(db.Metrics().Freshness); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/scrub", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(db.Metrics().Scrub); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/", metrics.Handler(db.Metrics))
	return mux
}

// Schema types.
type (
	// Column is one typed table column.
	Column = catalog.Column
	// ViewDef defines an indexed view (see catalog.View).
	ViewDef = catalog.View
	// Strategy selects a view's maintenance protocol.
	Strategy = catalog.Strategy
	// ViewKind distinguishes projection from aggregate views.
	ViewKind = catalog.ViewKind
)

// Value types.
type (
	// Value is a typed column value.
	Value = record.Value
	// Row is a tuple of values.
	Row = record.Row
	// Kind identifies a value's type.
	Kind = record.Kind
)

// Expression and aggregate types.
type (
	// Expr is a scalar expression over a source row.
	Expr = expr.Expr
	// AggSpec is one aggregate column of a view.
	AggSpec = expr.AggSpec
	// AggFunc identifies an aggregate function.
	AggFunc = expr.AggFunc
)

// IsolationLevel selects a transaction's isolation.
type IsolationLevel = txn.Level

// SyncMode selects commit durability.
type SyncMode = wal.SyncMode

// Value kinds.
const (
	KindNull    = record.KindNull
	KindBool    = record.KindBool
	KindInt64   = record.KindInt64
	KindFloat64 = record.KindFloat64
	KindString  = record.KindString
	KindBytes   = record.KindBytes
)

// View kinds.
const (
	ViewProjection = catalog.ViewProjection
	ViewAggregate  = catalog.ViewAggregate
)

// Maintenance strategies.
const (
	// StrategyEscrow is the paper's protocol: E locks, commit-time folds,
	// ghost rows via system transactions. The default.
	StrategyEscrow = catalog.StrategyEscrow
	// StrategyXLock is the conventional baseline: transaction-duration X
	// locks on view rows.
	StrategyXLock = catalog.StrategyXLock
	// StrategyDeferred keeps maintenance out of user transactions: a
	// background applier folds committed deltas into the view moments after
	// commit (bounded staleness). Requires a pure commutative aggregate view
	// (no MIN/MAX). Use DB.WaitForViewWatermark with Tx.CommitTS for
	// read-your-writes; DB.RefreshView still forces convergence on demand.
	StrategyDeferred = catalog.StrategyDeferred
)

// Isolation levels.
const (
	ReadCommitted  = txn.ReadCommitted
	RepeatableRead = txn.RepeatableRead
	Serializable   = txn.Serializable
	// Snapshot reads a transaction-consistent snapshot pinned at BeginTx,
	// resolved from MVCC version chains without lock-manager traffic. Writes
	// still take ordinary locks (no write-skew detection); combine with
	// TxOptions.ReadOnly for the log-free pure-read fast path.
	Snapshot = txn.Snapshot
)

// Aggregate functions.
const (
	AggCountRows = expr.AggCountRows
	AggCount     = expr.AggCount
	AggSum       = expr.AggSum
	AggAvg       = expr.AggAvg
	AggMin       = expr.AggMin
	AggMax       = expr.AggMax
)

// Durability modes.
const (
	// SyncNone flushes commits to the OS without fsync (default).
	SyncNone = wal.SyncNone
	// SyncData fsyncs every group commit.
	SyncData = wal.SyncData
)

// Errors (see the core package for semantics). Lock errors wrap the
// ErrDeadlock / ErrLockTimeout sentinels with the requesting transaction,
// mode, and resource, so errors.Is works through the whole chain.
var (
	ErrClosed         = core.ErrClosed
	ErrTxnDone        = core.ErrTxnDone
	ErrDuplicateKey   = core.ErrDuplicateKey
	ErrNotFound       = core.ErrNotFound
	ErrSchema         = core.ErrSchema
	ErrDeadlock       = core.ErrDeadlock
	ErrLockTimeout    = core.ErrLockTimeout
	ErrFlightDisabled = core.ErrFlightDisabled
	// ErrReadOnly rejects writes in a TxOptions.ReadOnly transaction;
	// ErrSnapshotOnly rejects TxOptions.ReadOnly at any isolation level
	// other than Snapshot.
	ErrReadOnly     = core.ErrReadOnly
	ErrSnapshotOnly = core.ErrSnapshotOnly
	// ErrInvalidView is the root sentinel wrapped by every
	// CreateIndexedView/DropView/RefreshView validation failure; the wrapping
	// error names the offending view and column. ErrViewInUse rejects dropping
	// a view while other views are defined over it.
	ErrInvalidView = core.ErrInvalidView
	ErrViewInUse   = core.ErrViewInUse
	// ErrViewWatermarkDropped fails a DB.WaitForViewWatermark whose view was
	// dropped (before or during the wait) — the watermark can never reach the
	// target, so the waiter errors instead of hanging.
	ErrViewWatermarkDropped = core.ErrViewWatermarkDropped
)

// Open recovers (or creates) the database at path.
func Open(path string, opts Options) (*DB, error) { return core.Open(path, opts) }

// Value constructors.

// Null returns the NULL value.
func Null() Value { return record.Null() }

// Bool returns a BOOL value.
func Bool(v bool) Value { return record.Bool(v) }

// Int returns a BIGINT value.
func Int(v int64) Value { return record.Int(v) }

// Float returns a DOUBLE value.
func Float(v float64) Value { return record.Float(v) }

// Str returns a VARCHAR value.
func Str(v string) Value { return record.Str(v) }

// Bytes returns a VARBINARY value (the slice is not copied).
func Bytes(v []byte) Value { return record.Bytes(v) }

// Expression constructors (see the expr package for semantics).

// Col references column idx of the view's source row.
//
// Deprecated: prefer NamedCol; the catalog resolves names against the source
// schema at CREATE VIEW time.
func Col(idx int) Expr { return expr.Col(idx) }

// NamedCol references a source column by name; the catalog resolves it when
// the view is created.
func NamedCol(name string) Expr { return expr.NamedCol(name) }

// Aggregate constructors for the named definition style. The output column
// name defaults to "<func>_<col>" ("sum_balance"); set AggSpec.Name to
// override it — views stacked on this one reference aggregates by that name.

// CountRows is COUNT(*); its output column is named "count".
func CountRows() AggSpec { return AggSpec{Func: expr.AggCountRows} }

// Count is COUNT(col): non-NULL values only.
func Count(col string) AggSpec { return AggSpec{Func: expr.AggCount, Arg: expr.NamedCol(col)} }

// Sum is SUM(col).
func Sum(col string) AggSpec { return AggSpec{Func: expr.AggSum, Arg: expr.NamedCol(col)} }

// Avg is AVG(col), maintained as a (count, sum) pair so it escrow-folds.
func Avg(col string) AggSpec { return AggSpec{Func: expr.AggAvg, Arg: expr.NamedCol(col)} }

// Min is MIN(col). Not escrow-able: maintenance falls back to X locks.
func Min(col string) AggSpec { return AggSpec{Func: expr.AggMin, Arg: expr.NamedCol(col)} }

// Max is MAX(col). Not escrow-able: maintenance falls back to X locks.
func Max(col string) AggSpec { return AggSpec{Func: expr.AggMax, Arg: expr.NamedCol(col)} }

// Const returns a literal expression.
func Const(v Value) Expr { return expr.Const(v) }

// ConstInt returns a BIGINT literal.
func ConstInt(v int64) Expr { return expr.ConstInt(v) }

// ConstFloat returns a DOUBLE literal.
func ConstFloat(v float64) Expr { return expr.ConstFloat(v) }

// ConstStr returns a VARCHAR literal.
func ConstStr(v string) Expr { return expr.ConstStr(v) }

// Arithmetic over numeric expressions (Add also concatenates strings).
func Add(l, r Expr) Expr { return expr.Add(l, r) }
func Sub(l, r Expr) Expr { return expr.Sub(l, r) }
func Mul(l, r Expr) Expr { return expr.Mul(l, r) }
func Div(l, r Expr) Expr { return expr.Div(l, r) }

// Comparisons.
func Eq(l, r Expr) Expr { return expr.Eq(l, r) }
func Ne(l, r Expr) Expr { return expr.Ne(l, r) }
func Lt(l, r Expr) Expr { return expr.Lt(l, r) }
func Le(l, r Expr) Expr { return expr.Le(l, r) }
func Gt(l, r Expr) Expr { return expr.Gt(l, r) }
func Ge(l, r Expr) Expr { return expr.Ge(l, r) }

// Boolean connectives.
func And(l, r Expr) Expr { return expr.And(l, r) }
func Or(l, r Expr) Expr  { return expr.Or(l, r) }
func Not(x Expr) Expr    { return expr.Not(x) }

// IsNull tests for NULL.
func IsNull(x Expr) Expr { return expr.IsNull(x) }
