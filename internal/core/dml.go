package core

import (
	"bytes"
	"fmt"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/wal"
)

// Insert adds a row to a table, maintaining every secondary index and
// indexed view inside the transaction.
func (tx *Tx) Insert(table string, row record.Row) error {
	if err := tx.writeCheck(); err != nil {
		return err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	if err := validateRow(tbl, row); err != nil {
		return err
	}
	key := primaryKey(tbl, row)
	if err := db.lockTree(&tx.t, tbl.ID, lock.ModeIX); err != nil {
		return err
	}
	if err := db.lockKey(&tx.t, tbl.ID, key, lock.ModeX); err != nil {
		return err
	}
	if ghost, ok := db.tree(tbl.ID).Has(key); ok && !ghost {
		return fmt.Errorf("%w: %s in %q", ErrDuplicateKey, row, table)
	}
	// Unique secondary indexes first, so a violation aborts before any write.
	indexes := db.Catalog().IndexesOn(table)
	for _, ix := range indexes {
		if !ix.Unique {
			continue
		}
		prefix := indexPrefix(ix, row)
		if err := db.lockKey(&tx.t, ix.ID, prefix, lock.ModeX); err != nil {
			return err
		}
		if dupe := indexPrefixExists(db.tree(ix.ID), prefix); dupe {
			return fmt.Errorf("%w: unique index %q", ErrDuplicateKey, ix.Name)
		}
	}
	// Resolve join-view source rows (taking inner-row S locks) before the
	// base change becomes visible — see prepareViewDeltas.
	deltas, err := db.prepareViewDeltas(tx, table, nil, row)
	if err != nil {
		return err
	}
	// Next-key insert locking (phantom protection): an instant-duration X
	// lock on the successor's *gap resource* blocks this insert while any
	// serializable scan holds an S range lock covering the gap the new key
	// lands in. Row locks live in a different namespace, so RepeatableRead
	// readers never block inserts. Held until the insert is applied — it
	// must span the insert, or a serializable scan's last fixpoint pass could
	// miss the new key — and then released; the grant reports the mode held
	// before, so no separate probe decides whether to release.
	succ := db.successorGap(tbl.ID, key)
	prior, err := db.acquire(&tx.t, succ, lock.ModeX)
	if err != nil {
		return err
	}
	if prior != lock.ModeNone {
		// This transaction already covers the successor's gap — a range lock
		// from one of its own serializable scans. Inserting key splits that
		// gap in two: the successor's gap resource keeps covering (key, succ],
		// but the new key's own gap — (predecessor, key] — would be left
		// unprotected, letting a concurrent insert land inside the scanned
		// range (its instant-duration probe of the new key's gap would find no
		// holder). Take a held X on the new gap before the insert becomes
		// visible, so the range stays covered until commit.
		if err := db.lockRes(&tx.t, gapResource(tbl.ID, key), lock.ModeX); err != nil {
			return err
		}
	}
	rec := &wal.Record{Type: wal.TInsert, Tree: tbl.ID, Key: key, NewVal: record.EncodeRow(row)}
	err = db.logOp(&tx.t, rec)
	if prior == lock.ModeNone {
		// The lock was taken solely as the instant-duration insert lock;
		// a lock already held (from earlier work in this transaction)
		// stays, preserving two-phase locking.
		db.lm.Release(&tx.t.Locks, succ)
	}
	if err != nil {
		return err
	}
	for _, ix := range indexes {
		rec := &wal.Record{Type: wal.TInsert, Tree: ix.ID, Key: indexKey(ix, tbl, row)}
		if err := db.logOp(&tx.t, rec); err != nil {
			return err
		}
	}
	return db.applyViewDeltas(tx, deltas)
}

// Delete removes the row with the given primary-key values.
func (tx *Tx) Delete(table string, pk record.Row) error {
	if err := tx.writeCheck(); err != nil {
		return err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	key, err := pkKey(tbl, pk)
	if err != nil {
		return err
	}
	if err := db.lockTree(&tx.t, tbl.ID, lock.ModeIX); err != nil {
		return err
	}
	if err := db.lockKey(&tx.t, tbl.ID, key, lock.ModeX); err != nil {
		return err
	}
	val, ghost, ok := db.tree(tbl.ID).Get(key)
	if !ok || ghost {
		return fmt.Errorf("%w: delete %s from %q", ErrNotFound, pk, table)
	}
	old, err := record.DecodeRow(val)
	if err != nil {
		return err
	}
	deltas, err := db.prepareViewDeltas(tx, table, old, nil)
	if err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.TDelete, Tree: tbl.ID, Key: key, OldVal: val}
	if err := db.logOp(&tx.t, rec); err != nil {
		return err
	}
	for _, ix := range db.Catalog().IndexesOn(table) {
		rec := &wal.Record{Type: wal.TDelete, Tree: ix.ID, Key: indexKey(ix, tbl, old)}
		if err := db.logOp(&tx.t, rec); err != nil {
			return err
		}
	}
	return db.applyViewDeltas(tx, deltas)
}

// Update replaces the values of the named columns in the row with the given
// primary key. Primary-key columns cannot change.
func (tx *Tx) Update(table string, pk record.Row, set map[int]record.Value) error {
	if err := tx.writeCheck(); err != nil {
		return err
	}
	db := tx.db
	tbl, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	key, err := pkKey(tbl, pk)
	if err != nil {
		return err
	}
	for c := range set {
		if c < 0 || c >= len(tbl.Cols) {
			return fmt.Errorf("%w: update column %d of %d", ErrSchema, c, len(tbl.Cols))
		}
		for _, p := range tbl.PK {
			if c == p {
				return fmt.Errorf("%w: cannot update primary-key column %q", ErrSchema, tbl.Cols[c].Name)
			}
		}
	}
	if err := db.lockTree(&tx.t, tbl.ID, lock.ModeIX); err != nil {
		return err
	}
	if err := db.lockKey(&tx.t, tbl.ID, key, lock.ModeX); err != nil {
		return err
	}
	val, ghost, ok := db.tree(tbl.ID).Get(key)
	if !ok || ghost {
		return fmt.Errorf("%w: update %s in %q", ErrNotFound, pk, table)
	}
	old, err := record.DecodeRow(val)
	if err != nil {
		return err
	}
	next := old.Clone()
	for c, v := range set {
		if !v.IsNull() && v.Kind() != tbl.Cols[c].Kind {
			return fmt.Errorf("%w: column %q is %s, got %s", ErrSchema, tbl.Cols[c].Name, tbl.Cols[c].Kind, v.Kind())
		}
		next[c] = v
	}
	deltas, err := db.prepareViewDeltas(tx, table, old, next)
	if err != nil {
		return err
	}
	rec := &wal.Record{Type: wal.TUpdate, Tree: tbl.ID, Key: key, OldVal: val, NewVal: record.EncodeRow(next)}
	if err := db.logOp(&tx.t, rec); err != nil {
		return err
	}
	// Secondary indexes whose key columns changed get delete+insert.
	for _, ix := range db.Catalog().IndexesOn(table) {
		oldKey := indexKey(ix, tbl, old)
		newKey := indexKey(ix, tbl, next)
		if bytes.Equal(oldKey, newKey) {
			continue
		}
		if ix.Unique {
			prefix := indexPrefix(ix, next)
			if err := db.lockKey(&tx.t, ix.ID, prefix, lock.ModeX); err != nil {
				return err
			}
			if indexPrefixExists(db.tree(ix.ID), prefix) {
				return fmt.Errorf("%w: unique index %q", ErrDuplicateKey, ix.Name)
			}
		}
		del := &wal.Record{Type: wal.TDelete, Tree: ix.ID, Key: oldKey}
		if err := db.logOp(&tx.t, del); err != nil {
			return err
		}
		ins := &wal.Record{Type: wal.TInsert, Tree: ix.ID, Key: newKey}
		if err := db.logOp(&tx.t, ins); err != nil {
			return err
		}
	}
	return db.applyViewDeltas(tx, deltas)
}

// validateRow checks arity, kinds, and PK non-NULLness.
func validateRow(tbl *catalog.Table, row record.Row) error {
	if len(row) != len(tbl.Cols) {
		return fmt.Errorf("%w: %q has %d columns, row has %d", ErrSchema, tbl.Name, len(tbl.Cols), len(row))
	}
	for i, v := range row {
		if v.IsNull() {
			continue
		}
		if v.Kind() != tbl.Cols[i].Kind {
			return fmt.Errorf("%w: column %q is %s, got %s", ErrSchema, tbl.Cols[i].Name, tbl.Cols[i].Kind, v.Kind())
		}
	}
	for _, p := range tbl.PK {
		if row[p].IsNull() {
			return fmt.Errorf("%w: NULL primary-key column %q", ErrSchema, tbl.Cols[p].Name)
		}
	}
	return nil
}

// primaryKey encodes a full row's primary key, pre-sized for the common
// fixed-width kinds (tag byte plus eight payload bytes).
func primaryKey(tbl *catalog.Table, row record.Row) []byte {
	key := make([]byte, 0, 9*len(tbl.PK))
	for _, p := range tbl.PK {
		key = record.AppendKey(key, row[p])
	}
	return key
}

// pkKey encodes explicit primary-key values, validating arity and kinds.
func pkKey(tbl *catalog.Table, pk record.Row) ([]byte, error) {
	if len(pk) != len(tbl.PK) {
		return nil, fmt.Errorf("%w: %q key has %d columns, got %d", ErrSchema, tbl.Name, len(tbl.PK), len(pk))
	}
	var key []byte
	for i, p := range tbl.PK {
		if pk[i].IsNull() || pk[i].Kind() != tbl.Cols[p].Kind {
			return nil, fmt.Errorf("%w: key column %q", ErrSchema, tbl.Cols[p].Name)
		}
		key = record.AppendKey(key, pk[i])
	}
	return key, nil
}

// indexPrefixExists reports whether any live index entry starts with prefix.
func indexPrefixExists(tree *btree.Tree, prefix []byte) bool {
	found := false
	tree.Scan(prefix, record.KeySuccessor(prefix), false, func(btree.Item) bool {
		found = true
		return false
	})
	return found
}
