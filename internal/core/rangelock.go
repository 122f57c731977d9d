package core

import (
	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/txn"
)

// Key-range (next-key) locking for base tables, in the style the paper's
// engine uses (SQL Server's RangeS/RangeI family): range protection lives in
// a *gap-resource* namespace separate from row locks, so holding a row S
// lock (RepeatableRead) never blocks inserts, while a serializable scan's
// gap locks do.
//
// The gap resource of key k covers the open interval (predecessor(k), k].
// A serializable scan S-locks the gap of every row it returns plus the gap
// of the range's end anchor (the first physical key at/after hi, or the
// tree's infinity). An insert of key i takes an instant-duration X lock on
// the gap of i's successor: if any serializable scan covers the gap i lands
// in, that gap S lock blocks the insert until the scan's transaction ends.

// gapPrefix distinguishes gap resources from row resources. Encoded row
// keys always start with a value tag (0x10–0x60), never 0x01.
const gapPrefix = 0x01

// infinityKey anchors the gap beyond the last key of a tree. 0xFF cannot
// begin an encoded key.
var infinityKey = []byte{0xFF}

// gapResource names the gap ending at key.
func gapResource(tree id.Tree, key []byte) lock.Resource {
	gk := make([]byte, 0, len(key)+1)
	gk = append(gk, gapPrefix)
	gk = append(gk, key...)
	return lock.KeyResource(tree, gk)
}

// successorGap returns the gap resource an insert of key must probe: the
// gap of the next physical key (ghosts included), or the infinity gap. The
// gap key is built in one buffer: prefix byte, then the successor appended
// directly by the tree.
func (db *DB) successorGap(tree id.Tree, key []byte) lock.Resource {
	gk := make([]byte, 1, len(key)+9)
	gk[0] = gapPrefix
	if gk, ok := db.tree(tree).SuccessorAppend(gk, key); ok {
		return lock.KeyResource(tree, gk)
	}
	return gapResource(tree, infinityKey)
}

// ceilingGap returns the end-anchor gap for a scan bounded by hi (nil means
// unbounded → infinity).
func (db *DB) ceilingGap(tree id.Tree, hi []byte) lock.Resource {
	if hi != nil {
		if ceil, ok := db.tree(tree).Ceiling(hi); ok {
			return gapResource(tree, ceil)
		}
	}
	return gapResource(tree, infinityKey)
}

// scanForLevel dispatches a base-table scan to the isolation level's
// protocol:
//
//   - ReadCommitted: momentary S per row, re-read under the lock.
//   - RepeatableRead: S locks on returned rows held to end of transaction.
//   - Serializable: RepeatableRead plus held S locks on each returned row's
//     gap and on the range's end-anchor gap (phantom protection), acquired
//     to a fixpoint so inserts racing the lock acquisition are caught.
func (db *DB) scanForLevel(tx *Tx, tree id.Tree, lo, hi []byte, fn func(key []byte, im image) (bool, error)) error {
	ts, self := tx.readAt()
	if ts != latest {
		return db.scanRows(tree, lo, hi, ts, self, fn)
	}
	if tx.t.Isolation == txn.Serializable {
		// Once the range is locked to a fixpoint the result set is stable:
		// emit it without further locking.
		if err := db.lockRange(tx, tree, lo, hi); err != nil {
			return err
		}
		return db.scanRows(tree, lo, hi, latest, id.None, fn)
	}
	// Stream the candidate keys latch-only, locking and re-reading each
	// outside the tree latch (locking under it could deadlock with commits).
	return db.scanRows(tree, lo, hi, latest, id.None, func(key []byte, _ image) (bool, error) {
		if err := db.readLock(tx, tree, key); err != nil {
			return false, err
		}
		im, ghost, ok, err := db.readRow(tree, key, latest, id.None, nil)
		if err != nil || !ok || ghost {
			return true, err // vanished between the scan and the lock
		}
		return fn(key, im)
	})
}

// lockRange locks [lo, hi) to a fixpoint: each pass locks the rows and gaps
// it sees plus the end anchor; a committed insert that raced an earlier pass
// shows up in the next pass and gets locked too. Once a pass finds nothing
// new, every gap in the range is covered and deleters are blocked by the row
// S locks.
func (db *DB) lockRange(tx *Tx, tree id.Tree, lo, hi []byte) error {
	const maxPasses = 64
	locked := map[string]bool{}
	for pass := 0; ; pass++ {
		if pass >= maxPasses {
			return lock.ErrTimeout // the range would not stabilize
		}
		fresh := 0
		err := db.scanRows(tree, lo, hi, latest, id.None, func(key []byte, _ image) (bool, error) {
			if locked[string(key)] {
				return true, nil
			}
			fresh++
			if err := db.lockKey(&tx.t, tree, key, lock.ModeS); err != nil {
				return false, err
			}
			if err := db.lockRes(&tx.t, gapResource(tree, key), lock.ModeS); err != nil {
				return false, err
			}
			locked[string(key)] = true
			return true, nil
		})
		if err != nil {
			return err
		}
		// (Re-)acquire the end anchor; it may have moved closer after an
		// insert landed ahead of it, and holding the superseded anchor's
		// gap is merely extra coverage.
		if err := db.lockRes(&tx.t, db.ceilingGap(tree, hi), lock.ModeS); err != nil {
			return err
		}
		if pass > 0 && fresh == 0 {
			return nil
		}
	}
}
