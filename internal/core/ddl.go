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
// a TDDL record inside a system transaction (which publishes the new catalog
// via the apply layer), and then runs backfill (still inside the same system
// transaction) to populate any new tree. preFinish, when non-nil, runs after
// the system transaction's versions are stamped but before its timestamp
// publishes — where a deferred view's watermark is set or retired
// (db.runSysTxnHook).
//
// lock, when non-nil, runs in the system transaction before the TDDL record:
// it S-locks the relations whose view or index lists change. A writer reads
// those lists after it has locked the relation it writes, so writers already
// holding it finish under the old catalog, and later ones wait for the commit
// and read the new one: no transaction sees a view or an index come or go
// between its statements and its commit.
func (db *DB) ddl(mutate func(c *catalog.Catalog) error, lock, backfill func(st *txn.Txn) error, preFinish func(ts uint64)) error {
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
		if lock != nil {
			if err := lock(st); err != nil {
				return err
			}
		}
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
	}, nil, nil, nil)
}

// CreateIndex registers a secondary index and backfills it from the table.
func (db *DB) CreateIndex(name, table string, cols []int, unique bool) error {
	return db.ddl(func(c *catalog.Catalog) error {
		_, err := c.AddIndex(name, table, cols, unique)
		return err
	}, func(st *txn.Txn) error {
		// Block writers of the base table until the backfill commits.
		tbl, err := db.Catalog().Table(table)
		if err != nil {
			return err
		}
		return db.lockTree(st, tbl.ID, lock.ModeS)
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
		seen := map[string]bool{}
		return db.eachRelationRow(cat, table, latest, func(row record.Row) error {
			if ix.Unique {
				prefix := string(indexPrefix(ix, row))
				if seen[prefix] {
					return fmt.Errorf("%w: unique index %q over duplicate values", ErrDuplicateKey, name)
				}
				seen[prefix] = true
			}
			return db.logOp(st, &wal.Record{Type: wal.TInsert, Tree: ix.ID, Key: indexKey(ix, tbl, row)})
		})
	}, nil)
}

// CreateIndexedView registers an indexed view and backfills it from its base
// tables. The def's ID and Name validation happen in the catalog. A deferred
// view's backfill also publishes its apply pair (ts, ts) at the backfill's
// commit timestamp: the base-table S locks held through commit make every
// commit the backfill missed allocate a later timestamp, so the applier folds
// exactly the deltas above the watermark.
func (db *DB) CreateIndexedView(def catalog.View) error {
	var added *catalog.View
	return db.ddl(func(c *catalog.Catalog) error {
		v, err := c.AddView(def)
		if err != nil {
			return wrapViewErr("create view", def.Name, err)
		}
		added = v
		return nil
	}, func(st *txn.Txn) error {
		return db.lockSources(st, db.Catalog(), added)
	}, func(st *txn.Txn) error {
		m := db.reg.Maintainer(added.ID)
		if m == nil {
			return fmt.Errorf("core: view %q has no compiled maintainer", def.Name)
		}
		entries, _, err := db.recompute(db.Catalog(), m, latest)
		if err != nil {
			return err
		}
		for _, e := range entries {
			rec := &wal.Record{Type: wal.TInsert, Tree: added.ID, Key: e.Key, NewVal: record.EncodeRow(e.Val)}
			if err := db.logOp(st, rec); err != nil {
				return err
			}
		}
		return nil
	}, func(ts uint64) {
		// mutate sets added before this hook can run, so reading it here
		// (rather than deciding at the ddl call) is what makes this correct.
		if added.Strategy == catalog.StrategyDeferred {
			// The view equals its source as of ts from this moment, so its
			// apply pair says so from this moment: until a view has a
			// watermark nothing holds the prune horizon to it.
			db.oracle.AdvanceViewApplied(added.ID, ts, ts)
		}
	})
}

// DropView removes an indexed view and its tree contents. Dropping a deferred
// view retires its watermark, which wakes its waiters with
// ErrViewWatermarkDropped; the applier discards its pending deltas once the
// view is gone from the catalog.
func (db *DB) DropView(name string) error {
	var dropped *catalog.View
	return db.ddl(func(c *catalog.Catalog) error {
		v, err := c.View(name)
		if err != nil {
			return wrapViewErr("drop view", name, err)
		}
		dropped = v
		return wrapViewErr("drop view", name, c.DropView(name))
	}, func(st *txn.Txn) error {
		return db.lockSources(st, db.Catalog(), dropped)
	}, func(st *txn.Txn) error {
		// Physically clear the view's tree (logged so recovery agrees).
		items := db.tree(dropped.ID).Items(nil, nil, true)
		for _, it := range items {
			rec := &wal.Record{Type: wal.TDelete, Tree: dropped.ID, Key: it.Key, OldVal: it.Val, OldGhost: it.Ghost}
			if err := db.logOp(st, rec); err != nil {
				return err
			}
		}
		return nil
	}, func(ts uint64) {
		if dropped.Strategy == catalog.StrategyDeferred {
			db.oracle.DropViewWatermark(dropped.ID)
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
// commit-time cascade folds land wholly before the scan (the recompute sees
// them), and later writers wait for st to end.
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
	return db.scanRows(tree, nil, nil, ts, id.None, func(key []byte, im image) (bool, error) {
		var err error
		if row, err = im.decode(row); err != nil {
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
