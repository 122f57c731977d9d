package escrow

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/wal"
)

func cell(key string, col uint32) CellID {
	return CellID{Row: RowID{Tree: 1, Key: key}, Col: col}
}

func TestDeltaIsZero(t *testing.T) {
	if (Delta{Int: 3}).IsZero() || (Delta{Float: 1.5}).IsZero() || !(Delta{}).IsZero() {
		t.Fatal("IsZero wrong")
	}
}

// sum adds two deltas (test-side arithmetic for the equivalence property).
func sum(a, b Delta) Delta { return Delta{Int: a.Int + b.Int, Float: a.Float + b.Float} }

// flatten renders a set as (tree, key, col, isFloat) → value, in walk order.
type flatCell struct {
	Tree    id.Tree
	Key     string
	Col     uint32
	IsFloat bool
	Int     int64
	Float   float64
}

func flatten(p *Pending) []flatCell {
	var out []flatCell
	for i := 0; i < p.Len(); i++ {
		g := p.At(i)
		for _, d := range g.Deltas {
			out = append(out, flatCell{g.Tree, string(g.Key), d.Col, d.IsFloat, d.Int, d.Float})
		}
	}
	return out
}

func TestPendingMergesAndOrders(t *testing.T) {
	p := NewPending()
	add := func(tree id.Tree, key string, col uint32, d Delta) bool {
		g, created := p.Group(tree, []byte(key))
		g.Add(col, d)
		return created
	}
	// Arrival order is scrambled on every axis; the walk order is not.
	if !add(2, "b", 3, Delta{Int: 7}) {
		t.Fatal("first touch not reported as created")
	}
	add(2, "a", 1, Delta{Float: 1.5})
	add(1, "z", 0, Delta{Int: 1})
	if add(2, "b", 0, Delta{Int: 5}) {
		t.Fatal("second touch reported as created")
	}
	add(2, "b", 3, Delta{Int: -2, Float: 0.5}) // int and float cells of one column
	add(2, "b", 0, Delta{})                    // zero: no cell
	add(3, "a", 0, Delta{Int: 1})              // spills past the inline groups
	want := []flatCell{
		{1, "z", 0, false, 1, 0},
		{2, "a", 1, true, 0, 1.5},
		{2, "b", 0, false, 5, 0},
		{2, "b", 3, false, 5, 0},
		{2, "b", 3, true, 0, 0.5},
		{3, "a", 0, false, 1, 0},
	}
	if got := flatten(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("walk order:\n got %+v\nwant %+v", got, want)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p.Len())
	}
}

func TestNetDropsCancelledCells(t *testing.T) {
	p := NewPending()
	g, _ := p.Group(1, []byte("g"))
	g.Add(0, Delta{Int: 1})
	g.Add(1, Delta{Int: 10})
	g.Add(2, Delta{Float: 2.5})
	g.Add(0, Delta{Int: -1})
	g.Add(2, Delta{Float: -2.5})
	want := []wal.ColDelta{{Col: 1, Int: 10}}
	if got := g.Net(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Net = %+v, want %+v", got, want)
	}
	g.Add(1, Delta{Int: -10})
	if got := g.Net(); len(got) != 0 {
		t.Fatalf("fully cancelled group nets to %+v", got)
	}
}

// TestSnapshotRestore is the savepoint contract: Restore returns the set to
// exactly the snapshot, whatever happened since — new groups vanish, changed
// cells revert, a cell driven to zero comes back — and the snapshot survives
// to be restored again.
func TestSnapshotRestore(t *testing.T) {
	p := NewPending()
	g, _ := p.Group(1, []byte("g1"))
	g.Add(0, Delta{Int: 5})
	before := flatten(p)
	snap := p.Snapshot()
	for round := 0; round < 2; round++ {
		g, _ = p.Group(1, []byte("g1"))
		g.Add(0, Delta{Int: -5}) // zero crossing
		g.Add(1, Delta{Int: 3})
		g, _ = p.Group(1, []byte("g0"))
		g.Add(0, Delta{Int: 7})
		g, _ = p.Group(2, []byte("g2"))
		g.Add(0, Delta{Int: 9})
		p.Restore(snap)
		if got := flatten(p); !reflect.DeepEqual(got, before) {
			t.Fatalf("round %d: after restore %+v, want %+v", round, got, before)
		}
	}
	// A snapshot of nothing restores to nothing.
	p.Restore(NewPending().Snapshot())
	if p.Len() != 0 {
		t.Fatalf("restore of an empty snapshot left %d groups", p.Len())
	}
}

// TestInsertAheadOfWalk is what the commit fold's cascade relies on: a group
// inserted for a higher tree while walking lands ahead of the walk position
// and is reached by the same walk.
func TestInsertAheadOfWalk(t *testing.T) {
	p := NewPending()
	for _, k := range []string{"a", "b", "c"} {
		g, _ := p.Group(1, []byte(k))
		g.Add(0, Delta{Int: 1})
	}
	var seen []string
	for i := 0; i < p.Len(); i++ {
		g := p.At(i)
		tree, key := g.Tree, string(g.Key)
		seen = append(seen, tree.String()+"/"+key)
		if tree == 1 { // every level-1 group feeds one level-2 group
			c, _ := p.Group(2, []byte("all"))
			c.Add(0, Delta{Int: 1})
		}
	}
	want := []string{id.Tree(1).String() + "/a", id.Tree(1).String() + "/b", id.Tree(1).String() + "/c", id.Tree(2).String() + "/all"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("walk saw %v, want %v", seen, want)
	}
	if got := p.At(3).Deltas[0].Int; got != 3 {
		t.Fatalf("coalesced child delta = %d, want 3", got)
	}
}

// TestFoldDiscardEquivalence is the package's core property, through the
// by-ID front: summing the committed transactions' sets and discarding the
// aborted ones yields exactly the serial sum of committed deltas.
func TestFoldDiscardEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		l := NewLedger()
		const txns = 20
		const cells = 5
		expect := map[CellID]Delta{}
		committed := map[id.Txn]bool{}
		for tx := id.Txn(1); tx <= txns; tx++ {
			committed[tx] = rng.Intn(2) == 0
			for op := 0; op < 1+rng.Intn(8); op++ {
				c := cell("g", uint32(rng.Intn(cells)))
				d := Delta{Int: int64(rng.Intn(21) - 10), Float: float64(rng.Intn(9) - 4)}
				l.Add(tx, c, d)
				if committed[tx] {
					expect[c] = sum(expect[c], d)
				}
			}
		}
		got := map[CellID]Delta{}
		for tx := id.Txn(1); tx <= txns; tx++ {
			if p := l.sets[tx]; p != nil && committed[tx] {
				for _, fc := range flatten(p) {
					c := CellID{Row: RowID{Tree: fc.Tree, Key: fc.Key}, Col: fc.Col}
					got[c] = sum(got[c], Delta{Int: fc.Int, Float: fc.Float})
				}
			}
			l.Discard(tx)
		}
		for c, want := range expect {
			if got[c] != want {
				t.Fatalf("trial %d cell %+v: got %+v want %+v", trial, c, got[c], want)
			}
		}
		for c, g := range got {
			if expect[c] != g {
				t.Fatalf("trial %d cell %+v: unexpected %+v", trial, c, g)
			}
		}
		if !l.Empty() {
			t.Fatalf("trial %d: ledger not empty", trial)
		}
	}
}

func TestLedgerZeroAndUnknown(t *testing.T) {
	l := NewLedger()
	l.Add(1, cell("g", 0), Delta{})
	if !l.Empty() {
		t.Fatal("a zero delta opened a set")
	}
	l.Discard(42) // unknown: no-op
	l.Add(1, cell("g", 0), Delta{Int: 1})
	if l.Empty() {
		t.Fatal("open set not counted")
	}
	l.Discard(1)
	if !l.Empty() {
		t.Fatal("not empty after discard")
	}
}

// TestLedgerConcurrentTxns: different transactions may use the front at once;
// each set stays private to its transaction.
func TestLedgerConcurrentTxns(t *testing.T) {
	l := NewLedger()
	const goroutines = 16
	const adds = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tx id.Txn) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				l.Add(tx, cell("hot", 0), Delta{Int: 1})
			}
		}(id.Txn(g + 1))
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		got := flatten(l.sets[id.Txn(g+1)])
		if len(got) != 1 || got[0].Int != adds {
			t.Fatalf("txn %d holds %+v, want one cell of %d", g+1, got, adds)
		}
	}
}

// BenchmarkPendingTransfer is what a two-group transfer does to its set: four
// source-row changes of four cells each, walked once, then dropped.
func BenchmarkPendingTransfer(b *testing.B) {
	keys := [][]byte{[]byte("branch-a"), []byte("branch-b")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := NewPending()
		for _, sign := range []int64{-1, 1} {
			for _, k := range keys {
				g, _ := p.Group(2, k)
				for col := uint32(0); col < 4; col++ {
					g.Add(col, Delta{Int: sign * int64(col+1)})
				}
			}
		}
		for j := 0; j < p.Len(); j++ {
			p.At(j).Net()
		}
	}
}
