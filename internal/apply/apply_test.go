package apply

import (
	"sort"
	"testing"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

func fixtureRegistry(t *testing.T) (*Registry, id.Tree, id.Tree) {
	t.Helper()
	cat := catalog.New()
	tbl, err := cat.AddTable("acc", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "grp", Kind: record.KindInt64},
		{Name: "val", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	v, err := cat.AddView(catalog.View{
		Name: "totals", Kind: catalog.ViewAggregate, Left: "acc",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	return reg, tbl.ID, v.ID
}

func treeSource() (TreeSource, map[id.Tree]*btree.Tree) {
	trees := map[id.Tree]*btree.Tree{}
	return func(t id.Tree) *btree.Tree {
		tr := trees[t]
		if tr == nil {
			tr = btree.New()
			trees[t] = tr
		}
		return tr
	}, trees
}

func TestApplyBasicActions(t *testing.T) {
	reg, tblID, _ := fixtureRegistry(t)
	src, trees := treeSource()

	key := []byte("k1")
	if err := Apply(reg, src, &wal.Record{Type: wal.TInsert, Tree: tblID, Key: key, NewVal: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	v, ghost, ok := trees[tblID].Get(key)
	if !ok || ghost || string(v) != "v1" {
		t.Fatalf("after insert: %q %v %v", v, ghost, ok)
	}
	if err := Apply(reg, src, &wal.Record{Type: wal.TUpdate, Tree: tblID, Key: key, OldVal: []byte("v1"), NewVal: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	v, _, _ = trees[tblID].Get(key)
	if string(v) != "v2" {
		t.Fatalf("after update: %q", v)
	}
	if err := Apply(reg, src, &wal.Record{Type: wal.TSetGhost, Tree: tblID, Key: key, NewGhost: true}); err != nil {
		t.Fatal(err)
	}
	if _, ghost, _ := trees[tblID].Get(key); !ghost {
		t.Fatal("ghost bit not set")
	}
	if err := Apply(reg, src, &wal.Record{Type: wal.TDelete, Tree: tblID, Key: key, OldVal: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := trees[tblID].Get(key); ok {
		t.Fatal("row survived delete")
	}
	// Begin/Commit/AbortEnd are no-ops.
	for _, typ := range []wal.Type{wal.TBegin, wal.TCommit, wal.TAbortEnd} {
		if err := Apply(reg, src, &wal.Record{Type: typ, Txn: 9}); err != nil {
			t.Fatal(err)
		}
	}
	if err := Apply(reg, src, &wal.Record{Type: 99}); err == nil {
		t.Fatal("bad record type accepted")
	}
}

func TestApplyEscrowFold(t *testing.T) {
	reg, _, viewID := fixtureRegistry(t)
	src, trees := treeSource()
	m := reg.Maintainer(viewID)
	if m == nil {
		t.Fatal("no maintainer")
	}
	key := record.EncodeKey(record.Row{record.Int(7)})
	// Fold against an absent row re-creates it from the empty group.
	rec := &wal.Record{
		Type: wal.TEscrowFold, Tree: viewID, Key: key,
		Deltas:   []wal.ColDelta{{Col: 0, Int: 2}, {Col: 1, Int: 2}, {Col: 2, Int: 2}, {Col: 3, Int: 150}},
		NewGhost: false,
	}
	if err := Apply(reg, src, rec); err != nil {
		t.Fatal(err)
	}
	v, ghost, ok := trees[viewID].Get(key)
	if !ok || ghost {
		t.Fatal("fold target missing")
	}
	row, err := record.DecodeRow(v)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsInt() != 2 || row[3].AsInt() != 150 {
		t.Fatalf("folded row = %v", row)
	}
	// Fold against a tree with no maintainer errors.
	if err := Apply(reg, src, &wal.Record{Type: wal.TEscrowFold, Tree: 999, Key: key}); err == nil {
		t.Fatal("fold on unknown view accepted")
	}
}

func TestApplyDDLSwapsCatalog(t *testing.T) {
	reg, _, _ := fixtureRegistry(t)
	src, trees := treeSource()
	// New catalog with one extra table.
	clone, err := catalog.Decode(reg.Catalog().Encode())
	if err != nil {
		t.Fatal(err)
	}
	nt, err := clone.AddTable("extra", []catalog.Column{{Name: "x", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{Type: wal.TDDL, OldVal: reg.Catalog().Encode(), NewVal: clone.Encode()}
	if err := Apply(reg, src, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Catalog().Table("extra"); err != nil {
		t.Fatal("catalog not swapped")
	}
	if trees[nt.ID] == nil {
		t.Fatal("new table's tree not materialized")
	}
	// Bad DDL payload errors.
	if err := Apply(reg, src, &wal.Record{Type: wal.TDDL, NewVal: []byte("junk")}); err == nil {
		t.Fatal("junk DDL accepted")
	}
}

func TestInvertRoundTrips(t *testing.T) {
	reg, tblID, viewID := fixtureRegistry(t)
	src, trees := treeSource()

	key := []byte("k")
	vKey := record.EncodeKey(record.Row{record.Int(1)})
	ops := []*wal.Record{
		{LSN: 1, Type: wal.TInsert, Txn: 5, Tree: tblID, Key: key, NewVal: []byte("a")},
		{LSN: 2, Type: wal.TUpdate, Txn: 5, Tree: tblID, Key: key, OldVal: []byte("a"), NewVal: []byte("b")},
		{LSN: 3, Type: wal.TSetGhost, Txn: 5, Tree: tblID, Key: key, OldGhost: false, NewGhost: true},
		{LSN: 4, Type: wal.TEscrowFold, Txn: 5, Tree: viewID, Key: vKey,
			Deltas: []wal.ColDelta{{Col: 0, Int: 1}, {Col: 3, IsFloat: true, Float: 2.5}}},
	}
	// Apply all forward.
	for _, op := range ops {
		if err := Apply(reg, src, op); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshotTrees(trees)
	// Extra op then invert it: state returns to 'before'.
	// Updates carry the row's current ghost bit in both fields (the engine
	// contract), here true after the TSetGhost above.
	extra := &wal.Record{LSN: 9, Type: wal.TUpdate, Txn: 5, Tree: tblID, Key: key,
		OldVal: []byte("b"), NewVal: []byte("c"), OldGhost: true, NewGhost: true}
	if err := Apply(reg, src, extra); err != nil {
		t.Fatal(err)
	}
	clr, err := Invert(reg, src, extra)
	if err != nil {
		t.Fatal(err)
	}
	if clr.Type != wal.TCLR || clr.UndoneLSN != 9 || clr.Action != wal.TUpdate {
		t.Fatalf("clr = %+v", clr)
	}
	if got := snapshotTrees(trees); got != before {
		t.Fatalf("invert did not restore state:\n%s\n%s", got, before)
	}
	// Invert everything in reverse: trees end empty.
	for i := len(ops) - 1; i >= 0; i-- {
		if _, err := Invert(reg, src, ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	for tid, tr := range trees {
		if n := len(tr.Items(nil, nil, true)); n != 0 && tid == tblID {
			t.Fatalf("tree %s has %d leftover entries", tid, n)
		}
	}
	// The view row should be back to an empty (all-zero) group.
	v, _, ok := trees[viewID].Get(vKey)
	if ok {
		row, _ := record.DecodeRow(v)
		if row[0].AsInt() != 0 {
			t.Fatalf("view row not neutral after undo: %v", row)
		}
	}
	// CLRs are never inverted.
	if _, err := Invert(reg, src, clr); err == nil {
		t.Fatal("inverting a CLR accepted")
	}
}

func snapshotTrees(trees map[id.Tree]*btree.Tree) string {
	ids := make([]id.Tree, 0, len(trees))
	for tid := range trees {
		ids = append(ids, tid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ""
	for _, tid := range ids {
		tr := trees[tid]
		for _, it := range tr.Items(nil, nil, true) {
			out += tid.String() + ":" + string(it.Key) + "=" + string(it.Val)
			if it.Ghost {
				out += "(g)"
			}
			out += ";"
		}
	}
	return out
}

func TestRegistryReplaceRecompiles(t *testing.T) {
	reg, _, viewID := fixtureRegistry(t)
	if reg.Maintainer(viewID) == nil {
		t.Fatal("maintainer missing")
	}
	// Publish a catalog lacking the view: the maintainer disappears.
	bare := catalog.New()
	bare.AddTable("acc", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err := reg.replace(bare); err != nil {
		t.Fatal(err)
	}
	if reg.Maintainer(viewID) != nil {
		t.Fatal("stale maintainer survived replace")
	}
}

// TestApplyPinned: a record that changes what a reader may see pins its
// version in the mutation and keeps the chain in rec.Pin; creating an empty
// ghost and erasing one pin nothing. Apply, the rollback and recovery path,
// never pins.
func TestApplyPinned(t *testing.T) {
	reg, tblID, _ := fixtureRegistry(t)
	src, trees := treeSource()
	key := []byte("k1")

	ins := &wal.Record{Type: wal.TInsert, Tree: tblID, Key: key, NewVal: []byte("v1")}
	created, err := ApplyPinned(reg, src, ins, 7)
	if err != nil || !created || ins.Pin == nil {
		t.Fatalf("pinned insert: created %v, Pin %v, err %v", created, ins.Pin, err)
	}
	up := &wal.Record{Type: wal.TUpdate, Tree: tblID, Key: key, OldVal: []byte("v1"), NewVal: []byte("v2")}
	if created, err := ApplyPinned(reg, src, up, 7); err != nil || created || up.Pin != ins.Pin {
		t.Fatalf("pinned update: created %v, same chain %v, err %v", created, up.Pin == ins.Pin, err)
	}
	if v, _, _ := trees[tblID].Get(key); string(v) != "v2" {
		t.Fatalf("after the pinned update the row reads %q", v)
	}

	ghost := &wal.Record{Type: wal.TInsert, Tree: tblID, Key: []byte("g"), NewVal: []byte("0"), NewGhost: true}
	if created, err := ApplyPinned(reg, src, ghost, 7); err != nil || created || ghost.Pin != nil {
		t.Fatalf("ghost creation pinned: created %v, Pin %v, err %v", created, ghost.Pin, err)
	}
	plain := &wal.Record{Type: wal.TInsert, Tree: tblID, Key: []byte("p"), NewVal: []byte("x")}
	if err := Apply(reg, src, plain); err != nil || plain.Pin != nil {
		t.Fatalf("Apply pinned: Pin %v, err %v", plain.Pin, err)
	}
	if it, _ := trees[tblID].Entry([]byte("p")); it.Chain != nil {
		t.Fatal("Apply hung a version chain on the entry")
	}
}
