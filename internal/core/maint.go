package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/escrow"
	"repro/internal/expr"
	"repro/internal/lock"
	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/view"
	"repro/internal/wal"
)

// viewDelta is one view's resolved source-row changes, prepared before the
// base change applies and replayed into the view after it.
type viewDelta struct {
	v      *catalog.View
	m      *view.Maintainer
	oldSrc []record.Row
	newSrc []record.Row
}

// prepareViewDeltas resolves the source rows a base-row change touches in
// every view on the table, taking the join lookups' inner-row S locks.
//
// This MUST run before the base change reaches the tree: the inner-row
// locks serialize this transaction against concurrent changes to joined
// rows, and the other side's own lookups must still see this row in its
// pre-change state until the conflict resolves. (Applying a base delete
// first would hide the row from a concurrent inner-side updater's lookup
// while this transaction later attributes the removal using the updated
// inner row — leaving the view off by one group. The join stress test
// exercises exactly this interleaving.)
func (db *DB) prepareViewDeltas(tx *Tx, table string, oldRow, newRow record.Row) ([]viewDelta, error) {
	var out []viewDelta
	for _, v := range db.Catalog().ViewsOn(table) {
		m := db.reg.Maintainer(v.ID)
		if m == nil {
			return nil, fmt.Errorf("core: view %q has no compiled maintainer", v.Name)
		}
		side := viewSide(v, table)
		oldSrc, err := db.sourceRows(tx, m, side, oldRow)
		if err != nil {
			return nil, err
		}
		newSrc, err := db.sourceRows(tx, m, side, newRow)
		if err != nil {
			return nil, err
		}
		out = append(out, viewDelta{v: v, m: m, oldSrc: oldSrc, newSrc: newSrc})
	}
	return out, nil
}

// applyViewDeltas replays prepared deltas into the views; it runs after the
// base change applied (MIN/MAX group recomputes scan the post-change base).
func (db *DB) applyViewDeltas(tx *Tx, deltas []viewDelta) error {
	for _, d := range deltas {
		for _, src := range d.oldSrc {
			if err := db.applySourceDelta(tx, d.v, d.m, src, -1); err != nil {
				return err
			}
		}
		for _, src := range d.newSrc {
			if err := db.applySourceDelta(tx, d.v, d.m, src, +1); err != nil {
				return err
			}
		}
	}
	return nil
}

// sourceRows expands a base row into the view's source rows, doing the join
// lookup with S locks held to end of transaction on the matched inner rows
// (so a concurrent change to a joined row serializes with this maintenance).
func (db *DB) sourceRows(tx *Tx, m *view.Maintainer, side view.JoinSide, row record.Row) ([]record.Row, error) {
	if row == nil {
		return nil, nil
	}
	return m.SourceRows(side, row, func(joinVal record.Value) ([]record.Row, error) {
		leftCol, rightCol := m.JoinCols()
		if side == view.SideLeft {
			return db.lookupRowsByCol(tx, m.Right, rightCol, joinVal)
		}
		return db.lookupRowsByCol(tx, m.Left, leftCol, joinVal)
	})
}

// lookupRowsByCol returns the live rows of a table whose column equals val,
// using a secondary index on that column when one exists, and S-locking each
// matched row for the transaction's duration.
func (db *DB) lookupRowsByCol(tx *Tx, tbl *catalog.Table, col int, val record.Value) ([]record.Row, error) {
	tree := db.tree(tbl.ID)
	var keys [][]byte
	if ix := db.indexOnCol(tbl.Name, col); ix != nil {
		prefix := record.AppendKey(nil, val)
		ixTree := db.tree(ix.ID)
		for _, it := range ixTree.Items(prefix, record.KeySuccessor(prefix), false) {
			// The PK suffix follows the indexed column's encoding.
			keys = append(keys, it.Key[len(prefix):])
		}
	} else {
		// No index: scan the table.
		for _, it := range tree.Items(nil, nil, false) {
			row, err := record.DecodeRow(it.Val)
			if err != nil {
				return nil, err
			}
			if record.Compare(row[col], val) == 0 {
				keys = append(keys, append([]byte(nil), it.Key...))
			}
		}
	}
	var out []record.Row
	for _, key := range keys {
		if err := db.lockKey(tx.t, tbl.ID, key, lock.ModeS); err != nil {
			return nil, err
		}
		v, ghost, ok := tree.Get(key)
		if !ok || ghost {
			continue // deleted between index read and lock
		}
		row, err := record.DecodeRow(v)
		if err != nil {
			return nil, err
		}
		if record.Compare(row[col], val) != 0 {
			continue // changed between index read and lock
		}
		out = append(out, row)
	}
	return out, nil
}

// indexOnCol finds a secondary index whose first column is col.
func (db *DB) indexOnCol(table string, col int) *catalog.Index {
	for _, ix := range db.Catalog().IndexesOn(table) {
		if ix.Cols[0] == col {
			return ix
		}
	}
	return nil
}

// applySourceDelta routes one source-row change into the view's maintenance
// protocol.
func (db *DB) applySourceDelta(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, sign int) error {
	ok, err := m.Matches(src)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if v.Kind == catalog.ViewProjection {
		return db.maintainProjection(tx, v, m, src, sign)
	}
	// Aggregate views: deferred views accumulate deltas for the background
	// applier without touching the view (DESIGN.md §9); escrow when the
	// strategy allows it and every aggregate commutes; otherwise the X-lock
	// fallback (DESIGN.md §5).
	if v.Strategy == catalog.StrategyDeferred {
		return db.maintainDeferred(tx, v, m, src, sign)
	}
	if v.Strategy == catalog.StrategyEscrow && !m.HasMinMax() {
		return db.maintainEscrow(tx, v, m, src, sign)
	}
	return db.maintainXLock(tx, v, m, src, sign)
}

// maintainDeferred accumulates the source-row change in the transaction's
// pending set exactly like maintainEscrow, but takes no view locks and creates
// no ghost: the view row is untouched until the background applier folds the
// commit's published deltas (deferred.go). Writers therefore never contend on
// the view at all — the deferred tier's entire throughput win.
func (db *DB) maintainDeferred(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, sign int) error {
	key, err := m.GroupKey(src)
	if err != nil {
		return err
	}
	hidden, contribs, err := m.Contributions(src, sign)
	if err != nil {
		return err
	}
	tx.addPending(metrics.HotKey{Tree: v.ID, Key: string(key)}, key, hidden, contribs)
	return nil
}

// maintainEscrow is the paper's protocol: E lock on the view row, ghost
// creation via a system transaction when the group is new, and deltas
// accumulated in the transaction's pending set for the commit-time fold.
func (db *DB) maintainEscrow(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, sign int) error {
	key, err := m.GroupKey(src)
	if err != nil {
		return err
	}
	if err := db.lockTree(tx.t, v.ID, lock.ModeIX); err != nil {
		return err
	}
	res := lock.KeyResource(v.ID, key)
	if err := db.lockKeyRes(tx.t, res, lock.ModeE); err != nil {
		return err
	}
	// Ensure the view row exists, creating a ghost via a system transaction
	// that commits immediately (independent of this transaction's fate).
	if _, ok := db.tree(v.ID).Has(key); !ok {
		if err := db.createGhost(v, m, key); err != nil {
			return err
		}
	}
	hidden, contribs, err := m.Contributions(src, sign)
	if err != nil {
		return err
	}
	tx.addPending(metrics.HotKey(res), key, hidden, contribs)
	return nil
}

// addPending merges one source-row change's contributions to a view group
// into the transaction's pending set (allocated on the first view touch, so
// a transaction that maintains no view pays nothing) and attributes them to
// the group in the hot-delta sketch: one value unit per delta, one count unit
// when this transaction first touches the group. hot names the group for the
// sketch; key is the same group key as bytes, which the set keeps.
func (tx *Tx) addPending(hot metrics.HotKey, key []byte, hidden view.CellDelta, contribs []view.Contribution) {
	if tx.pending == nil {
		tx.pending = escrow.NewPending()
	}
	g, created := tx.pending.Group(hot.Tree, key)
	n := addContributions(g, hidden, contribs)
	var first int64
	if created {
		first = 1
		tx.db.met.Escrow.PendingRows.Add(1)
	}
	tx.db.met.Hot.EscrowDeltas.Add(hot, n, first)
}

// createGhost inserts an empty ghost group row via a system transaction.
func (db *DB) createGhost(v *catalog.View, m *view.Maintainer, key []byte) error {
	return db.runSysTxn(func(st *txn.Txn) error {
		latch := db.structLatch(v.ID, key)
		latch.Lock()
		defer latch.Unlock()
		if _, _, ok := db.tree(v.ID).Get(key); ok {
			return nil // another transaction won the race
		}
		rec := &wal.Record{
			Type:     wal.TInsert,
			Tree:     v.ID,
			Key:      key,
			NewVal:   record.EncodeRow(m.NewGroupRow()),
			NewGhost: true,
		}
		if err := db.logOp(st, rec); err != nil {
			return err
		}
		db.met.Ghost.Created.Add(1)
		return nil
	})
}

// maintainXLock is the conventional baseline (and the MIN/MAX fallback):
// the view row is read, modified, and written back immediately under a
// transaction-duration X lock, with structural inserts and deletes performed
// directly by the user transaction.
func (db *DB) maintainXLock(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, sign int) error {
	key, err := m.GroupKey(src)
	if err != nil {
		return err
	}
	if err := db.lockTree(tx.t, v.ID, lock.ModeIX); err != nil {
		return err
	}
	if err := db.lockKey(tx.t, v.ID, key, lock.ModeX); err != nil {
		return err
	}
	hidden, contribs, err := m.Contributions(src, sign)
	if err != nil {
		return err
	}
	deltas := []wal.ColDelta{colDelta(hidden)}
	for _, c := range contribs {
		if !c.Escrowable {
			continue // handled below
		}
		for _, cd := range c.Cells {
			deltas = append(deltas, colDelta(cd))
		}
	}

	tree := db.tree(v.ID)
	cur, _, ok := tree.Get(key)
	var stored record.Row
	if ok {
		if stored, err = record.DecodeRow(cur); err != nil {
			return err
		}
	} else {
		if sign < 0 {
			return fmt.Errorf("core: view %q: delete from missing group", v.Name)
		}
		stored = m.NewGroupRow()
	}
	// ApplyFold mutates in place; dependents need the row's pre-image.
	children := db.Catalog().ViewsOn(v.Name)
	var oldStored record.Row
	if len(children) > 0 && ok {
		oldStored = append(record.Row(nil), stored...)
	}
	next, err := m.ApplyFold(stored, deltas)
	if err != nil {
		return err
	}
	// MIN/MAX cells.
	for i, c := range contribs {
		if c.Escrowable || c.Value.IsNull() {
			continue
		}
		off := m.AggOffset(i)
		curV := next[off]
		if sign > 0 {
			if curV.IsNull() || better(v.Aggs[i].Func, c.Value, curV) {
				next[off] = c.Value
			}
			continue
		}
		// Removing a row: if it carried the current extremum, recompute the
		// group from the base tables.
		if !curV.IsNull() && record.Compare(c.Value, curV) == 0 {
			recomputed, err := db.recomputeExtremum(tx, v, m, src, i)
			if err != nil {
				return err
			}
			next[off] = recomputed
		}
	}

	empty, err := m.GroupEmpty(next)
	if err != nil {
		return err
	}
	switch {
	case !ok:
		rec := &wal.Record{Type: wal.TInsert, Tree: v.ID, Key: key, NewVal: record.EncodeRow(next)}
		if err := db.logOp(tx.t, rec); err != nil {
			return err
		}
		return db.cascadeXLock(tx, v, m, key, nil, next, children)
	case empty:
		rec := &wal.Record{Type: wal.TDelete, Tree: v.ID, Key: key, OldVal: cur}
		if err := db.logOp(tx.t, rec); err != nil {
			return err
		}
		return db.cascadeXLock(tx, v, m, key, oldStored, nil, children)
	default:
		rec := &wal.Record{Type: wal.TUpdate, Tree: v.ID, Key: key, OldVal: cur, NewVal: record.EncodeRow(next)}
		if err := db.logOp(tx.t, rec); err != nil {
			return err
		}
		return db.cascadeXLock(tx, v, m, key, oldStored, next, children)
	}
}

// cascadeXLock pushes one X-lock-maintained parent row change into the views
// stacked on it. The X-lock path knows the row's old and new images at DML
// time, so dependents take the ordinary DML maintenance route: the old output
// row contributes with sign -1 and the new one with +1 through
// applySourceDelta, which puts escrow and deferred children's deltas in the
// pending set for the commit-time fold (coalescing with every other path that
// feeds the same group). Stacked views are never X-lock maintained themselves
// — the catalog rejects that — so the recursion is one level deep here and
// the commit-time cascade carries the change the rest of the way down.
func (db *DB) cascadeXLock(tx *Tx, v *catalog.View, m *view.Maintainer, key []byte, oldStored, newStored record.Row, children []*catalog.View) error {
	if len(children) == 0 || (oldStored == nil && newStored == nil) {
		return nil
	}
	push := func(stored record.Row, sign int) error {
		out, err := m.OutputRow(key, stored)
		if err != nil {
			return err
		}
		for _, child := range children {
			cm := db.reg.Maintainer(child.ID)
			if cm == nil {
				return fmt.Errorf("core: view %q has no compiled maintainer", child.Name)
			}
			if err := db.applySourceDelta(tx, child, cm, out, sign); err != nil {
				return err
			}
			db.met.Cascade.Enqueued.Add(1)
		}
		return nil
	}
	if oldStored != nil {
		if err := push(oldStored, -1); err != nil {
			return err
		}
	}
	if newStored != nil {
		if err := push(newStored, +1); err != nil {
			return err
		}
	}
	return nil
}

func colDelta(cd view.CellDelta) wal.ColDelta {
	if cd.Delta.Float != 0 {
		return wal.ColDelta{Col: cd.Cell, IsFloat: true, Float: cd.Delta.Float}
	}
	return wal.ColDelta{Col: cd.Cell, Int: cd.Delta.Int}
}

func better(f expr.AggFunc, candidate, current record.Value) bool {
	if f == expr.AggMin {
		return record.Compare(candidate, current) < 0
	}
	return record.Compare(candidate, current) > 0
}

// recomputeExtremum rescans the view's source for the group of src
// (excluding src itself, which is being removed) and recomputes aggregate
// aggIdx. The caller holds an X lock on the view row; base rows are read
// under the removed row's already-held locks plus the tree latch.
func (db *DB) recomputeExtremum(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, aggIdx int) (record.Value, error) {
	group, err := m.GroupRow(src)
	if err != nil {
		return record.Value{}, err
	}
	leftRows, rightRows, err := db.viewSourceRows(db.Catalog(), v, latest)
	if err != nil {
		return record.Value{}, err
	}
	// The base change was applied before maintenance ran, so the scan above
	// already reflects the removal: recomputing the group yields the new
	// extremum directly.
	entries, err := m.Recompute(leftRows, rightRows)
	if err != nil {
		return record.Value{}, err
	}
	target := record.EncodeKey(group)
	for _, e := range entries {
		if record.CompareKeys(e.Key, target) == 0 {
			res := e.Val[m.AggOffset(aggIdx)]
			return res, nil
		}
	}
	return record.Null(), nil // group has no other rows
}
