package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/view"
	"repro/internal/wal"
)

// maintainProjection maintains a projection (possibly join) view: physical
// insert/delete of derived rows under transaction-duration X locks, keyed by
// the source primary key(s).
func (db *DB) maintainProjection(tx *Tx, v *catalog.View, m *view.Maintainer, src record.Row, sign int) error {
	entry, err := m.ProjectEntry(src)
	if err != nil {
		return err
	}
	if err := db.lockTree(&tx.t, v.ID, lock.ModeIX); err != nil {
		return err
	}
	if err := db.lockKey(&tx.t, v.ID, entry.Key, lock.ModeX); err != nil {
		return err
	}
	tree := db.tree(v.ID)
	if sign > 0 {
		rec := &wal.Record{Type: wal.TInsert, Tree: v.ID, Key: entry.Key, NewVal: record.EncodeRow(entry.Val)}
		return db.logOp(&tx.t, rec)
	}
	cur, _, ok := tree.Get(entry.Key)
	if !ok {
		return fmt.Errorf("core: view %q: removing missing row", v.Name)
	}
	rec := &wal.Record{Type: wal.TDelete, Tree: v.ID, Key: entry.Key, OldVal: cur}
	return db.logOp(&tx.t, rec)
}
