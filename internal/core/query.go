package core

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/view"
	"repro/internal/wal"
)

// Get returns the row with the given primary key, or ok=false. Locking
// follows the isolation level: ReadCommitted takes a momentary S lock
// (blocking on uncommitted writers, releasing after the read); higher levels
// hold the S lock to end of transaction.
func (tx *Tx) Get(table string, pk record.Row) (record.Row, bool, error) {
	if err := tx.check(); err != nil {
		return nil, false, err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return nil, false, err
	}
	key, err := pkKey(tbl, pk)
	if err != nil {
		return nil, false, err
	}
	ts, self := tx.readAt()
	if ts == latest {
		if err := db.lockTree(tx.t, tbl.ID, lock.ModeIS); err != nil {
			return nil, false, err
		}
		if err := db.readLock(tx, tbl.ID, key); err != nil {
			return nil, false, err
		}
	}
	im, ghost, ok, err := db.readRow(tbl.ID, key, ts, self)
	if err != nil || !ok || ghost {
		return nil, false, err
	}
	row, err := im.decode(nil)
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// readLock implements the per-row read lock for the transaction's level.
func (db *DB) readLock(tx *Tx, tree id.Tree, key []byte) error {
	switch tx.t.Isolation {
	case txn.ReadCommitted:
		return db.momentaryS(tx.t, tree, key)
	default:
		return db.lockKey(tx.t, tree, key, lock.ModeS)
	}
}

// ScanTable visits live rows of a table in primary-key order, within
// [loPK, hiPK) (nil bounds mean open ends). ReadCommitted re-reads each row
// under a momentary S lock; RepeatableRead holds S locks on the rows read;
// Serializable additionally key-range locks the scanned range (each row
// plus the range's end anchor), which together with insert-time next-key
// locking blocks phantoms.
func (tx *Tx) ScanTable(table string, loPK, hiPK record.Row, fn func(record.Row) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	var lo, hi []byte
	if loPK != nil {
		lo = record.EncodeKey(loPK)
	}
	if hiPK != nil {
		hi = record.EncodeKey(hiPK)
	}
	if tx.t.Isolation != txn.Snapshot {
		if err := db.lockTree(tx.t, tbl.ID, lock.ModeIS); err != nil {
			return err
		}
	}
	return db.scanForLevel(tx, tbl.ID, lo, hi, func(_ []byte, im image) (bool, error) {
		row, err := im.decode(nil)
		if err != nil {
			return false, err
		}
		return fn(row), nil
	})
}

// GetViewRow reads one group of an aggregate view (or one row of a
// projection view, keyed by source PKs). For aggregate escrow views the
// stored value is committed by construction, so ReadCommitted readers read
// latch-only — they never block on escrow writers. Serializable (and
// RepeatableRead) readers take S locks, which conflict with E: they block
// until in-flux groups commit (DESIGN.md §5). X-lock-maintained views
// contain uncommitted data, so even ReadCommitted locks momentarily.
func (tx *Tx) GetViewRow(viewName string, keyRow record.Row) (record.Row, bool, error) {
	if err := tx.check(); err != nil {
		return nil, false, err
	}
	db := tx.db
	v, err := db.Catalog().View(viewName)
	if err != nil {
		return nil, false, err
	}
	key := record.EncodeKey(keyRow)
	// A snapshot reader resolves the group at its pinned read timestamp:
	// committed escrow deltas up to the timestamp fold into the stored value,
	// pending ones stay invisible — no lock-manager traffic, no blocking of
	// writers. Everyone else locks first, then reads the inline value.
	ts, self := tx.readAt()
	if ts == latest {
		if err := db.lockTree(tx.t, v.ID, lock.ModeIS); err != nil {
			return nil, false, err
		}
		switch {
		case tx.t.Isolation != txn.ReadCommitted:
			if err := db.lockKey(tx.t, v.ID, key, lock.ModeS); err != nil {
				return nil, false, err
			}
		case committedByConstruction(v):
		default:
			if err := db.momentaryS(tx.t, v.ID, key); err != nil {
				return nil, false, err
			}
		}
	}
	im, ghost, ok, err := db.readRow(v.ID, key, ts, self)
	if err != nil || !ok || ghost {
		return nil, false, err
	}
	res, err := db.viewResult(v, im)
	return res, err == nil, err
}

// committedByConstruction reports whether a view's stored rows hold only
// committed data, so ReadCommitted may read them latch-only: escrow aggregate
// rows change only by commit-time folds, deferred rows only by the applier's
// committed system transactions (bounded-stale; Snapshot isolation reads
// exactly at the watermark). X-lock-maintained views contain uncommitted
// data and need the momentary S lock.
func committedByConstruction(v *catalog.View) bool {
	return v.Strategy == catalog.StrategyDeferred ||
		(v.Strategy == catalog.StrategyEscrow && v.Kind == catalog.ViewAggregate)
}

// viewResult maps a resolved view row to its user-visible result: the stored
// row itself for a projection view, the aggregate results otherwise. A
// snapshot read's folded group arrives decoded and is not decoded again.
func (db *DB) viewResult(v *catalog.View, im image) (record.Row, error) {
	stored, err := im.decode(nil)
	if err != nil || v.Kind == catalog.ViewProjection {
		return stored, err
	}
	return db.reg.Maintainer(v.ID).Result(stored)
}

// ViewRow pairs a view key with its user-visible result row.
type ViewRow struct {
	Key    record.Row
	Result record.Row
}

// ScanView returns every live row of a view: group keys with aggregate
// results, or projection rows. Locking follows GetViewRow's rules, at tree
// granularity for Serializable/RepeatableRead.
func (tx *Tx) ScanView(viewName string) ([]ViewRow, error) {
	return tx.ScanViewRange(viewName, nil, nil)
}

// ScanViewRange returns the live view rows with loKey <= key < hiKey (nil
// bounds mean open ends); keys are group values for aggregate views and
// source PKs for projection views. Locking follows ScanView's rules.
func (tx *Tx) ScanViewRange(viewName string, loKey, hiKey record.Row) ([]ViewRow, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	db := tx.db
	v, err := db.Catalog().View(viewName)
	if err != nil {
		return nil, err
	}
	var lo, hi []byte
	if loKey != nil {
		lo = record.EncodeKey(loKey)
	}
	if hiKey != nil {
		hi = record.EncodeKey(hiKey)
	}
	ts, self := tx.readAt()
	rowLock := false
	if ts == latest {
		treeMode := lock.ModeS
		if tx.t.Isolation == txn.ReadCommitted {
			treeMode = lock.ModeIS
			rowLock = !committedByConstruction(v)
		}
		if err := db.lockTree(tx.t, v.ID, treeMode); err != nil {
			return nil, err
		}
	}
	var out []ViewRow
	err = db.scanRows(v.ID, lo, hi, ts, self, func(key []byte, im image) (bool, error) {
		if rowLock {
			if err := db.momentaryS(tx.t, v.ID, key); err != nil {
				return false, err
			}
			fresh, ghost, ok, err := db.readRow(v.ID, key, latest, id.None)
			if err != nil || !ok || ghost {
				return true, err
			}
			im = fresh
		}
		keyRow, err := record.DecodeKey(key)
		if err != nil {
			return false, err
		}
		res, err := db.viewResult(v, im)
		if err != nil {
			return false, err
		}
		out = append(out, ViewRow{Key: keyRow, Result: res})
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AggregateNoView computes GROUP BY aggregates by scanning the base table —
// the query plan a database without the indexed view must run (the F6
// baseline). It scans under the transaction's isolation rules.
func (tx *Tx) AggregateNoView(table string, where expr.Expr, groupBy []int, aggs []expr.AggSpec) ([]ViewRow, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	// Ad-hoc aggregates accept the same named column references CREATE VIEW
	// does; resolve them here since this path bypasses the catalog.
	resolve := func(name string) (int, error) {
		for i, c := range tbl.Cols {
			if c.Name == name {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%w: table %q has no column %q", catalog.ErrNotFound, table, name)
	}
	if where, err = expr.ResolveColumns(where, resolve); err != nil {
		return nil, err
	}
	aggs = append([]expr.AggSpec(nil), aggs...)
	for i := range aggs {
		if aggs[i].Arg, err = expr.ResolveColumns(aggs[i].Arg, resolve); err != nil {
			return nil, err
		}
	}
	def := &catalog.View{
		Name: "(adhoc)", Kind: catalog.ViewAggregate, Left: table,
		Where: where, GroupByCols: groupBy, Aggs: aggs,
	}
	m, err := view.Compile(def, tbl, nil)
	if err != nil {
		return nil, err
	}
	agg := m.NewAggregator()
	var addErr error
	if err := tx.ScanTable(table, nil, nil, func(r record.Row) bool {
		addErr = agg.Add(r)
		return addErr == nil
	}); err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	entries := agg.Entries()
	out := make([]ViewRow, 0, len(entries))
	for _, e := range entries {
		keyRow, err := record.DecodeKey(e.Key)
		if err != nil {
			return nil, err
		}
		res, err := m.Result(e.Val)
		if err != nil {
			return nil, err
		}
		out = append(out, ViewRow{Key: keyRow, Result: res})
	}
	return out, nil
}

// RefreshView recomputes a view's contents from its source relation in a
// system transaction, logging the differences, and then cascades: every
// transitive dependent recomputes from its freshly refreshed source, in
// ascending tree-ID (= topological) order inside the same system transaction.
// It reports how many view rows changed across the whole subtree. For each
// deferred view in the subtree it publishes the apply pair (ts, ts) at the
// one commit timestamp, before that timestamp becomes visible: the view now
// equals a recompute of its source as of ts, and the views' watermarks jump
// together — a reader comparing levels never sees a torn cross-level refresh.
// That watermark is all the applier needs: it folds only deltas committed
// above it. The refresh holds the source trees' S locks through commit, so
// any commit not included in the recompute allocates its timestamp after ts.
func (db *DB) RefreshView(viewName string) (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	cat := db.Catalog()
	v, err := cat.View(viewName)
	if err != nil {
		return 0, wrapViewErr("refresh view", viewName, err)
	}
	subtree := viewSubtree(cat, v)
	changed := 0
	err = db.runSysTxnHook(func(st *txn.Txn) error {
		for _, sv := range subtree {
			n, err := db.refreshOne(st, cat, sv)
			if err != nil {
				return err
			}
			changed += n
		}
		return nil
	}, func(ts uint64) {
		for _, sv := range subtree {
			if sv.Strategy == catalog.StrategyDeferred {
				db.oracle.AdvanceViewApplied(sv.ID, ts, ts)
			}
		}
	})
	return changed, err
}

// viewSubtree returns v plus every transitive dependent, in ascending tree-ID
// (= topological) order. Each view has exactly one source, so the walk never
// visits a view twice.
func viewSubtree(cat *catalog.Catalog, v *catalog.View) []*catalog.View {
	subtree := []*catalog.View{v}
	for i := 0; i < len(subtree); i++ {
		subtree = append(subtree, cat.ViewsOn(subtree[i].Name)...)
	}
	sort.Slice(subtree, func(i, j int) bool { return subtree[i].ID < subtree[j].ID })
	return subtree
}

// refreshOne recomputes one view from its source relation and logs the
// differences. The source S lock is a no-op when the source is a view this
// transaction already refreshed (the lock manager treats a request covered by
// the held X mode as granted), so a cascade locks each tree exactly once.
func (db *DB) refreshOne(st *txn.Txn, cat *catalog.Catalog, v *catalog.View) (int, error) {
	m := db.reg.Maintainer(v.ID)
	if m == nil {
		return 0, fmt.Errorf("core: view %q has no compiled maintainer", v.Name)
	}
	// Stabilize the source and take the view exclusively.
	if err := db.lockSources(st, cat, v); err != nil {
		return 0, err
	}
	want, _, err := db.recompute(cat, m, latest)
	if err != nil {
		return 0, err
	}
	if err := db.lockTree(st, v.ID, lock.ModeX); err != nil {
		return 0, err
	}
	have := db.tree(v.ID).Items(nil, nil, true)
	// Merge the two sorted sequences, logging the differences.
	changed := 0
	i, j := 0, 0
	for i < len(want) || j < len(have) {
		var cmp int
		switch {
		case i >= len(want):
			cmp = 1
		case j >= len(have):
			cmp = -1
		default:
			cmp = record.CompareKeys(want[i].Key, have[j].Key)
		}
		switch {
		case cmp < 0: // missing row
			rec := &wal.Record{Type: wal.TInsert, Tree: v.ID, Key: want[i].Key, NewVal: record.EncodeRow(want[i].Val)}
			if err := db.logOp(st, rec); err != nil {
				return changed, err
			}
			changed++
			i++
		case cmp > 0: // stale row
			rec := &wal.Record{Type: wal.TDelete, Tree: v.ID, Key: have[j].Key, OldVal: have[j].Val, OldGhost: have[j].Ghost}
			if err := db.logOp(st, rec); err != nil {
				return changed, err
			}
			changed++
			j++
		default:
			newVal := record.EncodeRow(want[i].Val)
			if have[j].Ghost || string(newVal) != string(have[j].Val) {
				rec := &wal.Record{Type: wal.TUpdate, Tree: v.ID, Key: have[j].Key,
					OldVal: have[j].Val, NewVal: newVal, OldGhost: have[j].Ghost}
				if err := db.logOp(st, rec); err != nil {
					return changed, err
				}
				changed++
			}
			i++
			j++
		}
	}
	return changed, nil
}
