// Package apply is the single definition of what a log record *does* to the
// stored trees. The engine's rollback path and the recovery redo/undo passes
// both go through Apply and Invert, so runtime behavior and restart behavior
// cannot drift apart.
package apply

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/view"
	"repro/internal/wal"
)

// ErrBadRecord reports a record that cannot be applied, such as an escrow
// fold against a tree with no compiled aggregate-view maintainer.
var ErrBadRecord = errors.New("apply: malformed record")

// TreeSource supplies trees by ID, creating them on demand (recovery may see
// records for trees created by a DDL record earlier in the log).
type TreeSource func(id.Tree) *btree.Tree

// Registry resolves aggregate-view maintainers by view tree ID and tracks
// the current catalog across DDL records. It publishes a catalog and the
// maintainers compiled from it as one immutable pair, so each read is one
// atomic load.
type Registry struct {
	cur atomic.Pointer[schema]
}

// schema is one published catalog with its compiled maintainers. Neither
// changes once published (see catalog.Catalog); a DDL record publishes a
// new pair.
type schema struct {
	cat         *catalog.Catalog
	maintainers map[id.Tree]*view.Maintainer
}

// NewRegistry compiles maintainers for every view in cat and publishes the
// pair. cat must not be written afterwards.
func NewRegistry(cat *catalog.Catalog) (*Registry, error) {
	r := &Registry{}
	if err := r.replace(cat); err != nil {
		return nil, err
	}
	return r, nil
}

// replace compiles maintainers for every view in cat and publishes the pair;
// cat is read-only from here on. Only NewRegistry and a TDDL record, which
// brings a freshly decoded catalog, publish one. A view's source may be
// another view: SourceTable supplies the parent's output schema as a
// pseudo-table, so stacked maintainers compile exactly like flat ones.
func (r *Registry) replace(cat *catalog.Catalog) error {
	ms := make(map[id.Tree]*view.Maintainer, len(cat.Views()))
	for _, v := range cat.Views() {
		left, err := cat.SourceTable(v.Left)
		if err != nil {
			return err
		}
		var right *catalog.Table
		if v.Join() {
			if right, err = cat.Table(v.Right); err != nil {
				return err
			}
		}
		m, err := view.Compile(v, left, right)
		if err != nil {
			return err
		}
		ms[v.ID] = m
	}
	r.cur.Store(&schema{cat: cat, maintainers: ms})
	return nil
}

// Catalog returns the current catalog, which is read-only.
func (r *Registry) Catalog() *catalog.Catalog { return r.cur.Load().cat }

// Maintainer returns the compiled plan for a view tree, or nil.
func (r *Registry) Maintainer(t id.Tree) *view.Maintainer { return r.cur.Load().maintainers[t] }

// Apply performs the record's action against the trees. Begin/Commit/
// AbortEnd records are no-ops. CLRs perform their compensating action.
// Rollback and recovery apply records this way: they pin no versions.
func Apply(reg *Registry, trees TreeSource, rec *wal.Record) error {
	_, err := apply(reg, trees, rec, id.None, false)
	return err
}

// ApplyPinned performs rec as txn runs it. A record that changes what some
// reader may see (see versioned) pins its provisional version on the row's
// version chain in the same latch hold and descent as its mutation, and
// rec.Pin keeps the chain. created reports a new chain, which the caller
// queues for the pruner.
func ApplyPinned(reg *Registry, trees TreeSource, rec *wal.Record, txn id.Txn) (created bool, err error) {
	return apply(reg, trees, rec, txn, versioned(rec))
}

// versioned reports whether rec changes what some reader may see, and so
// pins a version. Creating an empty ghost and erasing one do not: ghost and
// absent read alike at every timestamp. They are also the one structural
// change no lock held through commit orders against concurrent folds of the
// same row (stacked and deferred folds take no row lock), so a version for
// them could carry a commit timestamp out of step with the tree's order.
func versioned(rec *wal.Record) bool {
	switch rec.Type {
	case wal.TInsert:
		return !rec.NewGhost
	case wal.TDelete:
		return !rec.OldGhost
	case wal.TUpdate, wal.TEscrowFold:
		return true
	default:
		return false
	}
}

// apply performs rec, pinning it for txn when pin is set.
func apply(reg *Registry, trees TreeSource, rec *wal.Record, txn id.Txn, pin bool) (created bool, err error) {
	action := rec.Type
	if rec.Type == wal.TCLR {
		action = rec.Action
	}
	switch action {
	case wal.TBegin, wal.TCommit, wal.TAbortEnd:
	case wal.TInsert, wal.TUpdate:
		created = put(trees(rec.Tree), rec.Key, rec.NewVal, rec.NewGhost, rec, txn, pin)
	case wal.TDelete:
		if pin {
			rec.Pin, created = trees(rec.Tree).DeletePinned(rec.Key, rec, txn)
		} else {
			trees(rec.Tree).Delete(rec.Key)
		}
	case wal.TSetGhost:
		trees(rec.Tree).SetGhost(rec.Key, rec.NewGhost)
	case wal.TEscrowFold:
		return applyFold(reg, trees, rec, txn, pin)
	case wal.TDDL:
		cat, err := catalog.Decode(rec.NewVal)
		if err != nil {
			return false, fmt.Errorf("%w: DDL catalog: %v", ErrBadRecord, err)
		}
		if err := reg.replace(cat); err != nil {
			return false, err
		}
		// Materialize trees for every object so later records find them.
		for _, tid := range cat.AllTreeIDs() {
			trees(tid)
		}
	default:
		return false, fmt.Errorf("%w: action %v", ErrBadRecord, action)
	}
	return created, nil
}

// put stores val under key, pinning rec for txn when pin is set.
func put(tree *btree.Tree, key, val []byte, ghost bool, rec *wal.Record, txn id.Txn, pin bool) (created bool) {
	if pin {
		rec.Pin, created = tree.PutPinned(key, val, ghost, rec, txn)
		return created
	}
	tree.Put(key, val, ghost)
	return false
}

func applyFold(reg *Registry, trees TreeSource, rec *wal.Record, txn id.Txn, pin bool) (bool, error) {
	m := reg.Maintainer(rec.Tree)
	if m == nil {
		return false, fmt.Errorf("%w: no maintainer for tree %s", ErrBadRecord, rec.Tree)
	}
	tree := trees(rec.Tree)
	cur, _, ok := tree.Get(rec.Key)
	var stored record.Row
	var err error
	if ok {
		if stored, err = record.DecodeRow(cur); err != nil {
			return false, fmt.Errorf("%w: fold target: %v", ErrBadRecord, err)
		}
	} else {
		// The ghost the fold targeted is gone (possible only during
		// recovery replays that race ghost cleanup records); re-create it.
		stored = m.NewGroupRow()
	}
	next, err := m.ApplyFold(stored, rec.Deltas)
	if err != nil {
		return false, err
	}
	return put(tree, rec.Key, record.EncodeRow(next), rec.NewGhost, rec, txn, pin), nil
}

// Invert builds the compensation record for rec and applies it, returning
// the CLR for logging. CLRs themselves are redo-only and never inverted.
func Invert(reg *Registry, trees TreeSource, rec *wal.Record) (*wal.Record, error) {
	clr := &wal.Record{
		Type:      wal.TCLR,
		Txn:       rec.Txn,
		Sys:       rec.Sys,
		Tree:      rec.Tree,
		UndoneLSN: rec.LSN,
	}
	switch rec.Type {
	case wal.TInsert:
		clr.Action = wal.TDelete
		clr.Key = rec.Key
		clr.OldVal = rec.NewVal
		clr.OldGhost = rec.NewGhost
	case wal.TDelete:
		clr.Action = wal.TInsert
		clr.Key = rec.Key
		clr.NewVal = rec.OldVal
		clr.NewGhost = rec.OldGhost
	case wal.TUpdate:
		clr.Action = wal.TUpdate
		clr.Key = rec.Key
		clr.OldVal, clr.NewVal = rec.NewVal, rec.OldVal
		clr.OldGhost, clr.NewGhost = rec.NewGhost, rec.OldGhost
	case wal.TSetGhost:
		clr.Action = wal.TSetGhost
		clr.Key = rec.Key
		clr.OldGhost, clr.NewGhost = rec.NewGhost, rec.OldGhost
	case wal.TEscrowFold:
		clr.Action = wal.TEscrowFold
		clr.Key = rec.Key
		clr.OldGhost, clr.NewGhost = rec.NewGhost, rec.OldGhost
		clr.Deltas = make([]wal.ColDelta, len(rec.Deltas))
		for i, d := range rec.Deltas {
			clr.Deltas[i] = wal.ColDelta{Col: d.Col, IsFloat: d.IsFloat, Int: -d.Int, Float: -d.Float}
		}
	case wal.TDDL:
		clr.Action = wal.TDDL
		clr.OldVal, clr.NewVal = rec.NewVal, rec.OldVal
	default:
		return nil, fmt.Errorf("%w: cannot invert %v", ErrBadRecord, rec.Type)
	}
	if err := Apply(reg, trees, clr); err != nil {
		return nil, err
	}
	return clr, nil
}
