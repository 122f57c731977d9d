package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/record"
	"repro/internal/verify"
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
// each view verifies clean, under the exclusive gate — keep it fast). It
// shares its recompute/compare core (internal/verify) with the online
// scrubber, so the two checkers accept exactly the same states.
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
		// For a view-over-view the recompute reads the parent view's live rows
		// (in output form), so a stacked chain is checked against the same
		// rows its maintenance folded from.
		leftRows, rightRows, err := db.viewSourceRows(cat, v, latest)
		if err != nil {
			return err
		}
		want, err := m.Recompute(leftRows, rightRows)
		if err != nil {
			return err
		}
		stored := db.tree(v.ID).Items(nil, nil, false) // live rows only
		have := make([]verify.Entry, 0, len(stored))
		for _, it := range stored {
			row, err := record.DecodeRow(it.Val)
			if err != nil {
				return err
			}
			have = append(have, verify.Entry{Key: it.Key, Val: row})
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
