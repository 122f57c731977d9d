package core

import (
	"fmt"
	"time"

	"repro/internal/applier"
	"repro/internal/catalog"
	"repro/internal/escrow"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/view"
)

// This file implements topological fold cascades over the view DAG
// (DESIGN.md §10). A view's source must already exist when the view is
// created and a view cannot be dropped while dependents remain, so ascending
// tree-ID order is a valid topological order of the DAG: folding trees in
// that order means every parent row change is final before its dependents
// fold. Both the commit-time escrow fold (tx.go) and the deferred applier
// (deferred.go) walk one escrow.Pending in that order, and the cascade below
// merges each fold's contributions to the views stacked above into the same
// set — always at a higher tree ID, so ahead of the walk.

// viewFolds is one view's share of a fold walk.
type viewFolds struct {
	v    *catalog.View
	rows int
}

// foldSet applies a pending set to the view rows, one logical EscrowFold per
// group under the short structure latch, for t. The walk goes in (tree, key)
// order and ascending tree ID is topological, so each fold's visible row
// change — translated into child-view deltas merged into the same set ahead
// of the walk — reaches the views stacked above within the same walk: they
// fold level by level, all stamped at t's one commit timestamp, in an order
// that depends on nothing but the deltas.
//
// A user transaction does not fold deferred views: their groups come back as
// the deltas to publish, and the applier's system transaction folds them,
// creating rows as it goes (deferred maintenance makes no ghosts up front).
// folded lists the views folded, in tree order.
func (db *DB) foldSet(t *txn.Txn, p *escrow.Pending) (folded []viewFolds, deferred []applier.GroupDelta, err error) {
	// Per-tree state, refreshed when the walk crosses into the next tree.
	var m *view.Maintainer
	var children []*catalog.View
	divert := false
	for i := 0; i < p.Len(); i++ {
		if m == nil || m.V.ID != p.At(i).Tree {
			// Entering the next tree: order what is left, including whatever
			// the folds so far contributed to the views stacked above.
			p.Sort(i)
		}
		g := p.At(i)
		tree, key, ds := g.Tree, g.Key, g.Net()
		if len(ds) == 0 {
			continue
		}
		if m == nil || m.V.ID != tree {
			m = db.reg.Maintainer(tree)
			divert = m != nil && m.V.Strategy == catalog.StrategyDeferred && !t.Sys
			if m != nil && !divert {
				children = db.Catalog().ViewsOn(m.V.Name)
			}
		}
		switch {
		case m == nil && t.Sys:
			continue // dropped while its deltas waited (its dependents went with it)
		case m == nil:
			return nil, nil, fmt.Errorf("core: fold against unknown view %s", tree)
		case divert:
			deferred = append(deferred, applier.GroupDelta{Tree: tree, Key: string(key), Deltas: ds})
			if m.V.OverView() {
				db.met.Cascade.DeferredOut.Add(1)
			}
			continue
		}
		fr, err := db.foldRow(t, m, key, ds, m.V.OverView() || t.Sys)
		if err != nil {
			return nil, nil, err
		}
		if n := len(folded); n > 0 && folded[n-1].v == m.V {
			folded[n-1].rows++
		} else {
			folded = append(folded, viewFolds{v: m.V, rows: 1})
		}
		db.met.Cascade.ObserveFold(m.V.Level())
		if len(children) > 0 {
			if err := db.enqueueCascade(p, m, key, fr, children); err != nil {
				return nil, nil, err
			}
		}
	}
	return folded, deferred, nil
}

// billFolds adds each view's share of a fold phase to its maintenance bill
// and returns the rows folded. A phase is timed whole — one clock read, not
// one per row — and split evenly over its rows.
func (db *DB) billFolds(folded []viewFolds, dur time.Duration) (total int) {
	for _, f := range folded {
		total += f.rows
	}
	for _, f := range folded {
		if c := db.met.Views.Get(f.v.ID); c != nil {
			c.FoldNs.Add(dur.Nanoseconds() * int64(f.rows) / int64(total))
		}
	}
	return total
}

// foldResult reports what one fold did to its view row, in the form the
// cascade needs: the row before and after, and whether each side was visible
// (present and not a ghost) to the views stacked above.
type foldResult struct {
	old, next          record.Row
	existed            bool
	oldGhost, newGhost bool
}

// enqueueCascade translates one parent view row change into child-view
// deltas: the vanished old row contributes with sign -1, the new row with +1.
// Columns the change left untouched cancel exactly in the set's merge, so an
// unchanged parent row cascades nothing.
func (db *DB) enqueueCascade(p *escrow.Pending, m *view.Maintainer, key []byte, fr foldResult, children []*catalog.View) error {
	oldVisible := fr.existed && !fr.oldGhost
	newVisible := !fr.newGhost
	if !oldVisible && !newVisible {
		return nil
	}
	var oldOut, newOut record.Row
	var err error
	if oldVisible {
		if oldOut, err = m.OutputRow(key, fr.old); err != nil {
			return err
		}
	}
	if newVisible {
		if newOut, err = m.OutputRow(key, fr.next); err != nil {
			return err
		}
	}
	for _, child := range children {
		cm := db.reg.Maintainer(child.ID)
		if cm == nil {
			return fmt.Errorf("core: view %q has no compiled maintainer", child.Name)
		}
		if oldOut != nil {
			if err := db.enqueueContribution(p, child, cm, oldOut, -1); err != nil {
				return err
			}
		}
		if newOut != nil {
			if err := db.enqueueContribution(p, child, cm, newOut, +1); err != nil {
				return err
			}
		}
	}
	return nil
}

// enqueueContribution merges one source (= parent output) row's signed
// contributions to a child view into the set.
func (db *DB) enqueueContribution(p *escrow.Pending, child *catalog.View, cm *view.Maintainer, src record.Row, sign int) error {
	ok, err := cm.Matches(src)
	if err != nil || !ok {
		return err
	}
	key, err := cm.GroupKey(src)
	if err != nil {
		return err
	}
	hidden, contribs, err := cm.Contributions(src, sign)
	if err != nil {
		return err
	}
	g, created := p.Group(child.ID, key)
	addContributions(g, hidden, contribs)
	db.met.Cascade.Enqueued.Add(1)
	if !created {
		db.met.Cascade.Coalesced.Add(1)
	}
	return nil
}

// addContributions merges one source-row change's cell deltas into g and
// returns how many of them were non-zero.
func addContributions(g *escrow.Group, hidden view.CellDelta, contribs []view.Contribution) (n int64) {
	g.Add(hidden.Cell, hidden.Delta)
	n = 1 // the hidden count moves by ±1, never zero
	for _, c := range contribs {
		for _, cd := range c.Cells {
			g.Add(cd.Cell, cd.Delta)
			if !cd.Delta.IsZero() {
				n++
			}
		}
	}
	return n
}
