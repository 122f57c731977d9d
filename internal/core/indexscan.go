package core

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/record"
)

// LookupByIndex returns the live rows whose indexed columns equal vals,
// found through the named secondary index (an index-prefix lookup: vals may
// cover a prefix of the index's columns). Rows are read under the
// transaction's isolation rules: momentary S at ReadCommitted, held S at
// RepeatableRead and Serializable (index-gap phantom protection is not
// implemented for secondary indexes; serializable callers who need it scan
// the base table instead).
func (tx *Tx) LookupByIndex(indexName string, vals record.Row) ([]record.Row, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	db := tx.db
	ix, err := db.Catalog().Index(indexName)
	if err != nil {
		return nil, err
	}
	tbl, err := db.Catalog().Table(ix.Table)
	if err != nil {
		return nil, err
	}
	if len(vals) == 0 || len(vals) > len(ix.Cols) {
		return nil, fmt.Errorf("%w: index %q takes up to %d values, got %d",
			ErrSchema, indexName, len(ix.Cols), len(vals))
	}
	for i, v := range vals {
		want := tbl.Cols[ix.Cols[i]].Kind
		if !v.IsNull() && v.Kind() != want {
			return nil, fmt.Errorf("%w: index column %d is %s, got %s",
				ErrSchema, i, want, v.Kind())
		}
	}
	prefix := record.EncodeKey(vals)
	ts, self := tx.readAt()
	if ts == latest {
		if err := db.lockTree(tx.t, ix.ID, lock.ModeIS); err != nil {
			return nil, err
		}
		if err := db.lockTree(tx.t, tbl.ID, lock.ModeIS); err != nil {
			return nil, err
		}
	}
	// Collect the primary keys from the index entries (key = indexed columns
	// then PK), then read each base row. At a snapshot timestamp index
	// entries and base rows both resolve at it, so the two are mutually
	// consistent (a transaction's index and row changes stamp with one commit
	// timestamp) and no locks are taken; the lock-based levels read the index
	// latch-only, then lock and re-validate each row.
	var pks [][]byte
	err = db.scanRows(ix.ID, prefix, record.KeySuccessor(prefix), ts, self, func(key []byte, _ image) (bool, error) {
		rest := key[len(prefix):]
		// Skip over any remaining indexed columns to reach the PK suffix.
		for skip := len(ix.Cols) - len(vals); skip > 0; skip-- {
			_, r, err := record.DecodeKeyValue(rest)
			if err != nil {
				return true, nil
			}
			rest = r
		}
		pks = append(pks, append([]byte(nil), rest...))
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	var out []record.Row
	for _, pk := range pks {
		if ts == latest {
			if err := db.readLock(tx, tbl.ID, pk); err != nil {
				return nil, err
			}
		}
		im, ghost, ok, err := db.readRow(tbl.ID, pk, ts, self, nil)
		if err != nil {
			return nil, err
		}
		if !ok || ghost {
			continue // row vanished between the index read and the lock
		}
		row, err := im.decode(nil)
		if err != nil {
			return nil, err
		}
		// Re-validate: the row's indexed columns may have changed between
		// the (latch-only) index read and the row lock.
		match := true
		for i, v := range vals {
			if record.Compare(row[ix.Cols[i]], v) != 0 {
				match = false
				break
			}
		}
		if match {
			out = append(out, row)
		}
	}
	return out, nil
}
