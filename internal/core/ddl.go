package core

import (
	"errors"
	"fmt"

	"repro/internal/apply"
	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/view"
	"repro/internal/wal"
)

// ddl runs mutate against a clone of the current catalog, logs the change as
// a TDDL record inside a system transaction (which installs the new catalog
// via the apply layer), and then runs backfill (still inside the same system
// transaction) to populate any new tree. preFinish, when non-nil, runs after
// the system transaction's versions are stamped but before its timestamp
// publishes — where deferred-view barriers must be emitted (db.runSysTxnHook).
func (db *DB) ddl(mutate func(c *catalog.Catalog) error, backfill func(st *txn.Txn) error, preFinish func(ts uint64)) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()

	oldBlob := db.Catalog().Encode()
	clone, err := catalog.Decode(oldBlob)
	if err != nil {
		return fmt.Errorf("core: catalog clone: %w", err)
	}
	if err := mutate(clone); err != nil {
		return err
	}
	newBlob := clone.Encode()
	// Dry-run the maintainer compilation before anything reaches the log: a
	// definition the registry cannot compile (e.g. a type-broken view) must
	// fail here, never as an unreplayable DDL record.
	if _, err := apply.NewRegistry(clone); err != nil {
		return err
	}
	err = db.runSysTxnHook(func(st *txn.Txn) error {
		rec := &wal.Record{Type: wal.TDDL, OldVal: oldBlob, NewVal: newBlob}
		if err := db.logOp(st, rec); err != nil {
			return err
		}
		// A created view's record exists before its backfill is logged; a
		// dropped view's record goes, so its series stop being exported.
		db.syncViewRecords()
		if backfill != nil {
			return backfill(st)
		}
		return nil
	}, preFinish)
	if err != nil {
		db.syncViewRecords() // the rollback restored the old catalog
	}
	return err
}

// CreateTable registers a new base table.
func (db *DB) CreateTable(name string, cols []catalog.Column, pk []int) error {
	return db.ddl(func(c *catalog.Catalog) error {
		_, err := c.AddTable(name, cols, pk)
		return err
	}, nil, nil)
}

// CreateIndex registers a secondary index and backfills it from the table.
func (db *DB) CreateIndex(name, table string, cols []int, unique bool) error {
	return db.ddl(func(c *catalog.Catalog) error {
		_, err := c.AddIndex(name, table, cols, unique)
		return err
	}, func(st *txn.Txn) error {
		cat := db.Catalog() // post-DDL catalog
		ix, err := cat.Index(name)
		if err != nil {
			return err
		}
		tbl, err := cat.Table(table)
		if err != nil {
			return err
		}
		// Block writers of the base table while backfilling.
		if err := db.lockTree(st, tbl.ID, lock.ModeS); err != nil {
			return err
		}
		seen := map[string]bool{}
		rows, err := db.relationRows(cat, table, latest)
		if err != nil {
			return err
		}
		for _, row := range rows {
			ixKey := indexKey(ix, tbl, row)
			if ix.Unique {
				prefix := indexPrefix(ix, row)
				if seen[string(prefix)] {
					return fmt.Errorf("%w: unique index %q over duplicate values", ErrDuplicateKey, name)
				}
				seen[string(prefix)] = true
			}
			rec := &wal.Record{Type: wal.TInsert, Tree: ix.ID, Key: ixKey}
			if err := db.logOp(st, rec); err != nil {
				return err
			}
		}
		return nil
	}, nil)
}

// CreateIndexedView registers an indexed view and backfills it from its base
// tables. The def's ID and Name validation happen in the catalog. A deferred
// view's backfill also publishes a create barrier so the applier initializes
// its watermark at the backfill's commit timestamp (the base-table S locks
// held through commit order the barrier before any later commit's batch).
func (db *DB) CreateIndexedView(def catalog.View) error {
	var deferredTree id.Tree
	var isDeferred bool
	return db.ddl(func(c *catalog.Catalog) error {
		v, err := c.AddView(def)
		if err != nil {
			return wrapViewErr("create view", def.Name, err)
		}
		if v.Strategy == catalog.StrategyDeferred {
			deferredTree = v.ID
			isDeferred = true
		}
		return nil
	}, func(st *txn.Txn) error {
		cat := db.Catalog()
		v, err := cat.View(def.Name)
		if err != nil {
			return err
		}
		m := db.reg.Maintainer(v.ID)
		if m == nil {
			return fmt.Errorf("core: view %q has no compiled maintainer", def.Name)
		}
		if err := db.lockSources(st, cat, v); err != nil {
			return err
		}
		leftRows, rightRows, err := db.viewSourceRows(cat, v, latest)
		if err != nil {
			return err
		}
		entries, err := m.Recompute(leftRows, rightRows)
		if err != nil {
			return err
		}
		for _, e := range entries {
			rec := &wal.Record{Type: wal.TInsert, Tree: v.ID, Key: e.Key, NewVal: record.EncodeRow(e.Val)}
			if err := db.logOp(st, rec); err != nil {
				return err
			}
		}
		return nil
	}, func(ts uint64) {
		// mutate sets isDeferred before this hook can run, so reading it here
		// (rather than deciding at the ddl call) is what makes this correct.
		if isDeferred {
			// The view equals its source as of ts from this moment, so its
			// watermark says so from this moment: the barrier below reaches
			// the applier later, and until a view has a watermark nothing
			// holds the prune horizon to it.
			db.oracle.AdvanceViewWatermark(deferredTree, ts)
			db.publishDeferredBarrier(deferredTree, ts, false)
		}
	})
}

// DropView removes an indexed view and its tree contents. Dropping a deferred
// view publishes a drop barrier so the applier discards its pending deltas
// and retires its watermark.
func (db *DB) DropView(name string) error {
	var viewTree id.Tree
	var wasDeferred bool
	return db.ddl(func(c *catalog.Catalog) error {
		v, err := c.View(name)
		if err != nil {
			return wrapViewErr("drop view", name, err)
		}
		viewTree = v.ID
		wasDeferred = v.Strategy == catalog.StrategyDeferred
		return wrapViewErr("drop view", name, c.DropView(name))
	}, func(st *txn.Txn) error {
		// Physically clear the view's tree (logged so recovery agrees).
		items := db.tree(viewTree).Items(nil, nil, true)
		for _, it := range items {
			rec := &wal.Record{Type: wal.TDelete, Tree: viewTree, Key: it.Key, OldVal: it.Val, OldGhost: it.Ghost}
			if err := db.logOp(st, rec); err != nil {
				return err
			}
		}
		return nil
	}, func(ts uint64) {
		if wasDeferred {
			db.publishDeferredBarrier(viewTree, ts, true)
		}
	})
}

// wrapViewErr ties a view DDL/refresh failure to its public root sentinel:
// every failure matches ErrInvalidView, and dependent-view conflicts
// additionally match ErrViewInUse. The underlying catalog error (which names
// the offending view or column) stays in the chain.
func wrapViewErr(op, name string, err error) error {
	if err == nil || errors.Is(err, ErrInvalidView) {
		return err
	}
	root := error(ErrInvalidView)
	if errors.Is(err, catalog.ErrInUse) {
		root = fmt.Errorf("%w: %w", ErrInvalidView, ErrViewInUse)
	}
	return fmt.Errorf("%w: %s %q: %w", root, op, name, err)
}

// lockSources S-locks a view's source trees for st, blocking writers of the
// source relation until st ends so a recompute reads it stable. For a
// view-over-view the pseudo-table's ID is the parent view's tree, so the S
// lock serializes against in-flight escrow writers' IX locks: their
// commit-time cascade folds land either wholly before the scan (the recompute
// sees them) or wholly after (the cascade, which sees this view in the
// catalog by then, maintains it incrementally).
func (db *DB) lockSources(st *txn.Txn, cat *catalog.Catalog, v *catalog.View) error {
	left, err := cat.SourceTable(v.Left)
	if err != nil {
		return err
	}
	if err := db.lockTree(st, left.ID, lock.ModeS); err != nil || !v.Join() {
		return err
	}
	right, err := cat.Table(v.Right)
	if err != nil {
		return err
	}
	return db.lockTree(st, right.ID, lock.ModeS)
}

// viewSourceRows reads a view's recompute inputs as of ts: every row of its
// source relation and, for a join view, of the joined table. At latest the
// caller holds locks on the sources (lockSources, or the exclusive gate).
func (db *DB) viewSourceRows(cat *catalog.Catalog, v *catalog.View, ts uint64) (left, right []record.Row, err error) {
	if left, err = db.relationRows(cat, v.Left, ts); err != nil || !v.Join() {
		return left, nil, err
	}
	right, err = db.relationRows(cat, v.Right, ts)
	return left, right, err
}

// relationRows materializes eachRelationRow.
func (db *DB) relationRows(cat *catalog.Catalog, name string, ts uint64) ([]record.Row, error) {
	var rows []record.Row
	err := db.eachRelationRow(cat, name, ts, func(row record.Row) error {
		rows = append(rows, row.Clone())
		return nil
	})
	return rows, err
}

// eachRelationRow streams every live row of a relation as of ts to fn, in
// the form maintenance sees it: stored rows for a base table, output rows
// (group-by columns followed by aggregate results) for a view. The row is
// decoded into a buffer the next row reuses: fn must not keep it.
func (db *DB) eachRelationRow(cat *catalog.Catalog, name string, ts uint64, fn func(record.Row) error) error {
	var tree id.Tree
	var output *view.Maintainer // set when the relation is a view
	if v, err := cat.View(name); err == nil {
		tree = v.ID
		if output = db.reg.Maintainer(tree); output == nil {
			return fmt.Errorf("core: view %q has no compiled maintainer", name)
		}
	} else if tbl, err := cat.Table(name); err == nil {
		tree = tbl.ID
	} else {
		return err
	}
	var row record.Row
	return db.scanRows(tree, nil, nil, ts, id.None, func(key, val []byte) (bool, error) {
		var err error
		if row, err = record.DecodeRowInto(row, val); err != nil {
			return false, err
		}
		out := row
		if output != nil {
			if out, err = output.OutputRow(key, row); err != nil {
				return false, err
			}
		}
		return true, fn(out)
	})
}

// indexKey builds a secondary index entry key: indexed columns then the
// primary key (so non-unique indexes stay unique per row).
func indexKey(ix *catalog.Index, tbl *catalog.Table, row record.Row) []byte {
	var key []byte
	for _, c := range ix.Cols {
		key = record.AppendKey(key, row[c])
	}
	for _, c := range tbl.PK {
		key = record.AppendKey(key, row[c])
	}
	return key
}

// indexPrefix builds just the indexed-columns part of an index key, for
// uniqueness checks and lookups.
func indexPrefix(ix *catalog.Index, row record.Row) []byte {
	var key []byte
	for _, c := range ix.Cols {
		key = record.AppendKey(key, row[c])
	}
	return key
}

// viewSide resolves which side of a view a table is.
func viewSide(v *catalog.View, table string) view.JoinSide {
	if v.Left == table {
		return view.SideLeft
	}
	return view.SideRight
}
