package core

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/scrub"
	"repro/internal/verify"
)

// This file adapts the kernel to the online consistency scrubber
// (internal/scrub, DESIGN.md §7.4). Every read the scrubber makes goes
// through the MVCC snapshot paths — zero lock-manager traffic, so it never
// blocks or is blocked by writers. Each adapter call is gate-admitted like
// any other reader; the scrubber task stops before Close takes the gate
// exclusively.

// defaultScrubInterval is the background scrubber's tick: one view per
// tick, unless the row budget is spent.
const defaultScrubInterval = defaultMVCCPruneInterval

// defaultScrubRowBudget is the verification pace in rows per second
// — low enough to stay in the noise of a saturated engine (tens of
// microseconds of snapshot reads per tick), high enough to cycle small
// catalogs every few seconds.
const defaultScrubRowBudget = 200_000

// scrubEngine is the kernel's scrub.Engine.
type scrubEngine struct{ db *DB }

// Plan implements scrub.Engine: catalog views in tree-ID order (topological
// for stacked DAGs). A deferred view whose source is not itself deferred is
// a component root and verifies through the (applyTS, watermark) pair; a
// deferred view over a deferred parent folds co-atomically with it, so a
// single snapshot timestamp serves both sides.
func (e scrubEngine) Plan() []scrub.View {
	db := e.db
	if db.closed.Load() {
		return nil
	}
	cat := db.Catalog()
	views := cat.ViewsByTree()
	out := make([]scrub.View, 0, len(views))
	for _, v := range views {
		pair := false
		if v.Strategy == catalog.StrategyDeferred {
			p, err := cat.View(v.Left)
			pair = err != nil || p.Strategy != catalog.StrategyDeferred
		}
		out = append(out, scrub.View{Tree: v.ID, Name: v.Name, Pair: pair})
	}
	return out
}

// Pin implements scrub.Engine: pin the current read timestamp.
func (e scrubEngine) Pin() (uint64, func()) {
	ts, h := e.db.oracle.BeginSnapshot()
	return ts, func() { e.db.oracle.EndSnapshot(h) }
}

// PinAt implements scrub.Engine: pin a past timestamp, refused when the
// prune horizon has passed it.
func (e scrubEngine) PinAt(ts uint64) (func(), bool) {
	h, ok := e.db.oracle.BeginSnapshotAt(ts)
	if !ok {
		return nil, false
	}
	return func() { e.db.oracle.EndSnapshot(h) }, true
}

// Applied implements scrub.Engine: the deferred view's fold pair.
func (e scrubEngine) Applied(tree id.Tree) (uint64, uint64) {
	return e.db.oracle.ViewApplied(tree)
}

// Verify implements scrub.Engine: the gate-admitted verifyView.
func (e scrubEngine) Verify(tree id.Tree, viewTS, srcTS uint64, max int) (int, []verify.Diff, error) {
	db := e.db
	if db.closed.Load() {
		return 0, nil, ErrClosed
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	m := db.reg.Maintainer(tree)
	if m == nil {
		return 0, nil, fmt.Errorf("core: scrub of unknown view %s", tree)
	}
	return db.verifyView(db.Catalog(), m, viewTS, srcTS, max)
}

// Report implements scrub.Engine: a confirmed divergence becomes
// EventScrubDivergence trace events naming (view, group, expected, actual)
// — plus what the lock-based path reads for the group right now, so a
// divergence confined to the snapshot path says so — and an immediate
// flight-record dump. The watchdog's scrub-divergence signature fires off
// the counter delta on its next poll.
func (e scrubEngine) Report(d scrub.Divergence) {
	db := e.db
	for i, diff := range d.Diffs {
		if i == 8 {
			break // a wholly corrupt view logs a bounded sample
		}
		if db.tracer != nil {
			im, ghost, ok, _ := db.readRow(d.View.Tree, diff.Key, latest, id.None)
			db.tracer.TraceEvent(metrics.Event{
				Type:     metrics.EventScrubDivergence,
				Resource: d.View.Name,
				Phase:    decodeHotKey(string(diff.Key)),
				Outcome:  diff.Detail() + ", lock path " + describeImage(im.val, ok && !ghost),
				Rows:     len(d.Diffs),
			})
		}
	}
	if db.flight != nil && len(d.Diffs) > 0 {
		first := d.Diffs[0]
		db.flight.Trigger(fmt.Sprintf("scrub divergence: view %q group %s: %s (view@%d vs source@%d)",
			d.View.Name, decodeHotKey(string(first.Key)), first.Detail(), d.ViewTS, d.SourceTS))
	}
}

// ScrubNow runs one full verification pass over every view on the caller's
// goroutine, unpaced, followed by the read-path oracle (CheckReadPaths): the
// on-demand sweep behind vtxnshell scrub full and the smoke harnesses. It
// works whether or not the background scrubber is enabled, and concurrently
// with it. Returns the number of view divergences found (each already
// traced, counted, and flight-dumped); a read-path disagreement is an error.
func (db *DB) ScrubNow(ctx context.Context) (int64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	diverged, err := db.scrub.FullPass(ctx)
	if err == nil {
		err = db.CheckReadPaths(ctx)
	}
	return diverged, err
}

// describeImage renders what one read path returned for a row.
func describeImage(val []byte, visible bool) string {
	if !visible {
		return "missing"
	}
	if row, err := record.DecodeRow(val); err == nil {
		return fmt.Sprint(row)
	}
	return fmt.Sprintf("%x", val)
}

// CorruptViewRow deliberately perturbs one stored view row in place,
// bypassing the WAL, locks, and versioning — the fault-injection hook behind
// the scrubber's detection tests and nothing else. keyRow is the group
// key (projection views: the source PK columns), exactly as Tx.GetViewRow
// takes it. The write is invisible to recovery (it is exactly the silent
// corruption the scrubber exists to catch). The entry's version chain goes
// in the same tree operation: a retained clean history would mask the damaged
// bytes from snapshot readers until it pruned. Callers should quiesce writers
// first; with a write in flight on the row the call errors. Testing only.
func (db *DB) CorruptViewRow(viewName string, keyRow record.Row) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.hit(fault.PointViewCorrupt); err != nil {
		return err
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	v, err := db.Catalog().View(viewName)
	if err != nil {
		return err
	}
	key := record.EncodeKey(keyRow)
	tree := db.tree(v.ID)
	val, ghost, ok := tree.Get(key)
	if !ok || ghost {
		return fmt.Errorf("%w: view %q key %x", ErrNotFound, viewName, key)
	}
	row, err := record.DecodeRow(val)
	if err != nil {
		return err
	}
	// Perturb the first aggregate cell when there is one (the hidden group
	// count lives before it), otherwise the row's last column.
	col := len(row) - 1
	if m := db.reg.Maintainer(v.ID); m != nil && m.Cells() > 0 {
		col = m.AggOffset(0)
	}
	row[col] = perturb(row[col])
	if !tree.Reset(key, record.EncodeRow(row)) {
		return fmt.Errorf("core: corrupt %q key %x: row has writes in flight", viewName, key)
	}
	return nil
}

// perturb returns a value guaranteed to differ from v.
func perturb(v record.Value) record.Value {
	switch v.Kind() {
	case record.KindInt64:
		return record.Int(v.AsInt() + 1)
	case record.KindFloat64:
		return record.Float(v.AsFloat() + 1)
	case record.KindString:
		return record.Str(v.AsString() + "?")
	case record.KindBool:
		return record.Bool(!v.AsBool())
	default:
		return record.Int(1)
	}
}
