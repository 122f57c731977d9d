package core

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"repro/internal/btree"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/txn"
)

// This file is the one read path (DESIGN.md §8): every read at every
// isolation level resolves a leaf entry — inline image plus version chain —
// at a read timestamp. Lock-based levels take their locks first and pass
// latest.

// latest is the read timestamp of the lock-based isolation levels: the
// entry's inline image, whatever its commit state (the caller's locks decide
// what it may see).
const latest = math.MaxUint64

// readAt returns the timestamp and own-writes overlay the transaction reads
// at: its pinned snapshot for Snapshot isolation, latest otherwise.
func (tx *Tx) readAt() (ts uint64, self id.Txn) {
	if tx.t.Isolation == txn.Snapshot {
		return tx.readTS, tx.t.ID
	}
	return latest, id.None
}

// image is a resolved row: its encoding, or — when a snapshot read folded an
// escrow group's committed deltas into it — the decoded row, which is handed
// on as it is rather than encoded for the reader to decode again.
type image struct {
	val []byte
	row record.Row
}

// decode returns the image as a row, decoding val into buf's array when it
// must decode.
func (im image) decode(buf record.Row) (record.Row, error) {
	if im.row != nil {
		return im.row, nil
	}
	return record.DecodeRowInto(buf, im.val)
}

// encoded returns the image's encoding.
func (im image) encoded() []byte {
	if im.row != nil {
		return record.EncodeRow(im.row)
	}
	return im.val
}

// resolve returns the row image of a physical entry at ts. A chainless entry
// is committed at or below every live read timestamp, so its inline image
// stands at any ts; a chain resolves by timestamp comparison, with deltas
// newer than the image it picks folded in. self overlays that transaction's
// own pending operations. A group folded with deltas is decoded into buf.
func (db *DB) resolve(tree id.Tree, it btree.Item, ts uint64, self id.Txn, buf record.Row) (im image, ghost, ok bool, err error) {
	if it.Chain == nil || ts == latest {
		return image{val: it.Val}, it.Ghost, !it.Dead, nil
	}
	res := it.Chain.Resolve(ts, self)
	if len(res.Deltas) == 0 {
		return image{val: res.Val}, res.Ghost, res.Present, nil
	}
	// An absent image has a nil Val: deltas newer than it fold over an empty
	// group.
	im.row, ghost, err = db.foldDeltas(tree, res.Val, res.Deltas, buf)
	return im, ghost, err == nil, err
}

// readRow resolves one row of tree at ts, with zero lock-manager traffic,
// decoding a folded group into buf.
func (db *DB) readRow(tree id.Tree, key []byte, ts uint64, self id.Txn, buf record.Row) (image, bool, bool, error) {
	if ts == latest {
		val, ghost, ok := db.tree(tree).Get(key)
		return image{val: val}, ghost, ok, nil
	}
	it, ok := db.tree(tree).Entry(key)
	if !ok {
		return image{}, false, false, nil
	}
	return db.resolve(tree, it, ts, self, buf)
}

// scanBatch is how many entries scanRows copies out per latch hold: about
// one leaf.
const scanBatch = 64

// scanRows streams the rows of tree in [lo, hi) visible at ts to fn, in key
// order; fn returning false stops the scan. Entries leave the tree a batch at
// a time, so fn runs outside the tree latch (it may take locks or re-read the
// tree) and a scan that stops early has touched only the entries up to there,
// not the rest of the range. key and the image are valid only until fn
// returns: inline images are copied into a buffer the next batch reuses.
func (db *DB) scanRows(tree id.Tree, lo, hi []byte, ts uint64, self id.Txn, fn func(key []byte, im image) (bool, error)) error {
	t := db.tree(tree)
	var batch []btree.Item
	var buf, next []byte
	for {
		batch, buf = batch[:0], buf[:0]
		t.ScanAll(lo, hi, func(it btree.Item) bool {
			// A chainless ghost, or anything but a live inline image at
			// latest, resolves to nothing: skip it without the copy.
			if (it.Chain == nil || ts == latest) && (it.Ghost || it.Dead) {
				return true
			}
			// Growing buf strands earlier items on the old array, intact.
			k, v := len(buf), len(buf)+len(it.Key)
			buf = append(append(buf, it.Key...), it.Val...)
			it.Key, it.Val = buf[k:v:v], buf[v:len(buf):len(buf)]
			batch = append(batch, it)
			return len(batch) < scanBatch
		})
		for _, it := range batch {
			im, ghost, ok, err := db.resolve(tree, it, ts, self, nil)
			if err != nil {
				return err
			}
			if !ok || ghost {
				continue
			}
			if more, err := fn(it.Key, im); err != nil || !more {
				return err
			}
		}
		if len(batch) < scanBatch {
			return nil
		}
		// Resume at the last key's immediate successor (in its own buffer: buf
		// is about to be rewritten).
		next = append(append(next[:0], batch[len(batch)-1].Key...), 0)
		lo = next
	}
}

// CheckReadPaths is the differential read-path oracle: for every physical
// entry of every tree (ghosts and tombstones included) the Snapshot resolve
// at the oracle's current read timestamp must equal the lock-based read of
// the inline image — same visibility, and the same bytes when visible. Meant
// for a quiesced database, where it covers every entry; entries with an
// operation in flight or a version newer than the timestamp are skipped, so
// a call under traffic never reports a false disagreement. The error names
// the tree, key, and both paths' values.
func (db *DB) CheckReadPaths(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	db.gate.RLock()
	defer db.gate.RUnlock()
	ts := db.oracle.ReadTS()
	for tid, t := range db.allTrees() {
		if err := ctx.Err(); err != nil {
			return err
		}
		var bad error
		// The comparison runs under the tree latch: a writer cannot slip a
		// pin-mutate-unpin cycle between the inline read and the Settled check.
		t.ScanAll(nil, nil, func(it btree.Item) bool {
			if it.Chain == nil || !it.Chain.Settled(ts) {
				return true
			}
			im, ghost, ok, err := db.resolve(tid, it, ts, id.None, nil)
			val := im.encoded()
			snapVisible, lockVisible := ok && !ghost, !it.Dead && !it.Ghost
			switch {
			case err != nil:
				bad = fmt.Errorf("core: read paths: %s key %x: snapshot resolve: %w", tid, it.Key, err)
			case snapVisible != lockVisible, snapVisible && !bytes.Equal(val, it.Val):
				bad = fmt.Errorf("core: read paths disagree on %s key %x at ts %d: snapshot %s, lock-based %s",
					tid, it.Key, ts, describeImage(val, snapVisible), describeImage(it.Val, lockVisible))
			}
			return bad == nil
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
