package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/verify"
	"repro/internal/view"
)

// CheckProgress is one per-view progress report from CheckConsistencyCtx:
// view Index (0-based) of Total just verified clean, reading Rows rows
// (source rows recomputed plus view rows compared).
type CheckProgress struct {
	View  string
	Index int
	Total int
	Rows  int
}

// CheckConsistency quiesces the database and verifies the paper's central
// invariant: every indexed view's live contents equal a recompute-from-
// scratch over its source relation (base tables, or the parent view for a
// stacked view) — including deferred views, once the
// background applier has drained. It also checks B-tree structural
// invariants and that no escrow deltas are pending at quiescence.
func (db *DB) CheckConsistency() error {
	return db.CheckConsistencyCtx(context.Background(), nil)
}

// CheckConsistencyCtx is CheckConsistency with a context bounding the
// quiescence wait and an optional per-view progress callback (invoked after
// each view verifies clean, under the exclusive gate — keep it fast). Per
// view it runs the online scrubber's core, verifyView, at latest, without
// taking the gate again, so the two checkers accept exactly the same states
// and report a divergence as the same verify.Diff.
func (db *DB) CheckConsistencyCtx(ctx context.Context, progress func(CheckProgress)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	// Deferred views converge only after the applier catches up, and every
	// applier fold round is a gate reader — waiting under the exclusive gate
	// would stall the rounds it waits for. So wait BEFORE taking the gate,
	// then confirm under it that no user commit published a delta between
	// the wait and the lock; if one did, let the applier fold it and wait
	// again. A bounded retry turns a wedged applier into an error, not a
	// hang.
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := db.waitDeferredCaughtUp(10 * time.Second); err != nil {
			return err
		}
		db.gate.Lock()
		if db.deferredCaughtUp() {
			break
		}
		db.gate.Unlock()
		if attempt >= 100 {
			return fmt.Errorf("core: deferred applier cannot catch up with concurrent commits")
		}
	}
	defer db.gate.Unlock()
	// No transaction is live under the exclusive gate, so every pending set
	// has been folded or dropped and taken its rows off the gauge.
	if n := db.met.Escrow.PendingRows.Load(); n != 0 {
		return fmt.Errorf("core: %d escrow rows still pending at quiescence", n)
	}
	cat := db.Catalog()
	db.treesMu.RLock()
	trees := make(map[string]error)
	for tid, tree := range db.trees {
		if err := tree.CheckInvariants(); err != nil {
			trees[tid.String()] = err
		}
	}
	db.treesMu.RUnlock()
	for name, err := range trees {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	views := cat.Views()
	for i, v := range views {
		if err := ctx.Err(); err != nil {
			return err
		}
		m := db.reg.Maintainer(v.ID)
		if m == nil {
			return fmt.Errorf("core: view %q has no maintainer", v.Name)
		}
		rows, diffs, err := db.verifyView(cat, m, latest, latest, 1)
		if err != nil {
			return err
		}
		if len(diffs) > 0 {
			return diffs[0].Error(v.Name)
		}
		if progress != nil {
			progress(CheckProgress{View: v.Name, Index: i, Total: len(views), Rows: rows})
		}
	}
	return nil
}

// recompute computes a view's expected contents from its source relation as
// of ts, and counts the source rows read: the one routine behind verifyView,
// the view backfill, RefreshView and the MIN/MAX repair. A
// single-source aggregate streams its source through the view's Aggregator,
// in memory for the view's groups, not the source's rows; a projection or
// join collects its sources and recomputes. A stacked view's source is its
// parent's live rows in output form, the rows its maintenance folded from.
// The caller holds the gate, and at latest keeps the sources stable (source
// locks or the exclusive gate).
func (db *DB) recompute(cat *catalog.Catalog, m *view.Maintainer, ts uint64) (want []verify.Entry, srcRows int, err error) {
	v := m.V
	if v.Kind == catalog.ViewAggregate && !v.Join() {
		agg := m.NewAggregator()
		err := db.eachRelationRow(cat, v.Left, ts, func(row record.Row) error {
			srcRows++
			return agg.Add(row)
		})
		if err != nil {
			return nil, 0, err
		}
		return agg.Entries(), srcRows, nil
	}
	var left, right []record.Row
	err = db.eachRelationRow(cat, v.Left, ts, func(row record.Row) error {
		left = append(left, row.Clone())
		return nil
	})
	if err == nil && v.Join() {
		err = db.eachRelationRow(cat, v.Right, ts, func(row record.Row) error {
			right = append(right, row.Clone())
			return nil
		})
	}
	if err != nil {
		return nil, 0, err
	}
	want, err = m.Recompute(left, right)
	return want, len(left) + len(right), err
}

// verifyView judges one view, the routine behind both checkers: it
// recomputes the view's expected contents from its source as of srcTS and
// streams the stored rows as of viewTS through one verify.Walk, decoding each
// into one reused row, so only a diff copies a key or a row. Ghosts are not
// stored rows, as the recompute omits empty groups. It returns the rows read
// (source rows recomputed plus view rows compared) and at most max diffs
// (max <= 0: all). The caller holds the gate.
func (db *DB) verifyView(cat *catalog.Catalog, m *view.Maintainer, viewTS, srcTS uint64, max int) (rows int, diffs []verify.Diff, err error) {
	want, rows, err := db.recompute(cat, m, srcTS)
	if err != nil {
		return 0, nil, err
	}
	w := verify.Walk{Want: want, Max: max}
	var row record.Row
	err = db.scanRows(m.V.ID, nil, nil, viewTS, id.None, func(key []byte, im image) (bool, error) {
		var err error
		if row, err = im.decode(row); err != nil {
			return false, err
		}
		rows++
		return w.Stored(key, row), nil
	})
	if err != nil {
		return 0, nil, err
	}
	return rows, w.Done(), nil
}
