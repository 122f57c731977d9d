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
// view Index (0-based) of Total just finished verifying Rows live rows.
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
// view it runs the online scrubber's core — recompute, viewEntries and
// verify.Compare — at latest, without taking the gate again, so the two
// checkers accept exactly the same states and report a divergence as the
// same verify.Diff.
func (db *DB) CheckConsistencyCtx(ctx context.Context, progress func(CheckProgress)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	// Deferred views converge only after the applier catches up, and the
	// applier's folds need the world unlocked — so wait BEFORE taking the
	// gate, then confirm nothing slipped in between the wait and the lock
	// (the applier never takes the gate, but new user commits could). A
	// bounded retry turns a wedged applier into an error, not a hang.
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
		want, _, err := db.recompute(cat, m, latest)
		if err != nil {
			return err
		}
		have, _, err := db.viewEntries(v.ID, nil, latest, 0)
		if err != nil {
			return err
		}
		if diffs := verify.Compare(want, have, 1); len(diffs) > 0 {
			return diffs[0].Error(v.Name)
		}
		if progress != nil {
			progress(CheckProgress{View: v.Name, Index: i, Total: len(views), Rows: len(have)})
		}
	}
	return nil
}

// recompute computes a view's expected contents from its source relation as
// of ts, and counts the source rows read: the one routine behind both
// checkers, the view backfill, RefreshView and the MIN/MAX repair. A
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

// viewEntries scans a view's stored rows from lo as of ts, skipping ghosts as
// the recompute omits empty groups, and returns at most max entries (max <= 0:
// all) and the key to resume from. The caller holds the gate.
func (db *DB) viewEntries(tree id.Tree, lo []byte, ts uint64, max int) ([]verify.Entry, []byte, error) {
	var entries []verify.Entry
	var next []byte
	err := db.scanRows(tree, lo, nil, ts, id.None, func(key, val []byte) (bool, error) {
		if max > 0 && len(entries) == max {
			next = append([]byte(nil), key...)
			return false, nil
		}
		row, err := record.DecodeRow(val)
		if err != nil {
			return false, err
		}
		entries = append(entries, verify.Entry{Key: append([]byte(nil), key...), Val: row})
		return true, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return entries, next, nil
}
