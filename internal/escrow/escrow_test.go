package escrow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

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
	p.Sort(0)
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

// walk visits p the way a fold does — Sort before the first group and again
// on entering each next tree — calling visit for every group.
func walk(p *Pending, visit func(tree id.Tree, key string)) {
	var cur id.Tree
	for i := 0; i < p.Len(); i++ {
		if i == 0 || p.At(i).Tree != cur {
			p.Sort(i)
		}
		g := p.At(i)
		cur = g.Tree
		visit(g.Tree, string(g.Key))
	}
}

// TestCascadeAheadOfWalk is what the commit fold's cascade relies on: a group
// added for a higher tree while walking is reached by the same walk, in order
// among the groups that tree already had.
func TestCascadeAheadOfWalk(t *testing.T) {
	p := NewPending()
	for _, k := range []string{"c", "a", "b"} {
		g, _ := p.Group(1, []byte(k))
		g.Add(0, Delta{Int: 1})
	}
	g, _ := p.Group(2, []byte("m"))
	g.Add(0, Delta{Int: 1})
	var seen []string
	walk(p, func(tree id.Tree, key string) {
		seen = append(seen, tree.String()+"/"+key)
		if tree == 1 { // every level-1 group feeds two level-2 groups
			for _, k := range []string{"z", "all"} {
				c, _ := p.Group(2, []byte(k))
				c.Add(0, Delta{Int: 1})
			}
		}
	})
	t1, t2 := id.Tree(1).String(), id.Tree(2).String()
	want := []string{t1 + "/a", t1 + "/b", t1 + "/c", t2 + "/all", t2 + "/m", t2 + "/z"}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("walk saw %v, want %v", seen, want)
	}
	if got := p.At(3).Deltas[0].Int; got != 3 {
		t.Fatalf("coalesced child delta = %d, want 3", got)
	}
}

// TestWideTransaction checks the cost of a group does not depend on how many
// the set already holds: a bulk load under a high-cardinality view touches one
// group per row. 60 000 groups arrive in random order, each touched twice,
// are walked with every group cascading into a second tree, and the whole
// thing must stay far inside what a per-group O(n) step would take (the
// adds alone took 6.4 s with an insert-in-order slice; all of this takes
// about 0.1 s, 1 s under the race detector).
func TestWideTransaction(t *testing.T) {
	const n = 60_000
	rng := rand.New(rand.NewSource(3))
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("group-%06d", i))
	}
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	start := time.Now()
	p := NewPending()
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			g, created := p.Group(1, k)
			if created != (round == 0) {
				t.Fatalf("round %d: created = %v for %s", round, created, k)
			}
			g.Add(0, Delta{Int: 1})
		}
	}
	visited, prev := 0, ""
	walk(p, func(tree id.Tree, key string) {
		if cur := fmt.Sprintf("%d/%s", tree, key); cur <= prev {
			t.Fatalf("walk out of order: %s after %s", cur, prev)
		} else {
			prev = cur
		}
		visited++
		if tree == 1 {
			c, _ := p.Group(2, []byte(key[:len(key)-1])) // ten parents per child
			c.Add(0, Delta{Int: 1})
		}
	})
	if want := n + n/10; visited != want || p.Len() != want {
		t.Fatalf("walk visited %d of %d groups, want %d", visited, p.Len(), want)
	}
	for i := 0; i < p.Len(); i++ {
		if g := p.At(i); g.Deltas[0].Int != map[id.Tree]int64{1: 2, 2: 10}[g.Tree] {
			t.Fatalf("group %d/%s = %+v", g.Tree, g.Key, g.Deltas)
		}
	}
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("%d groups took %v: adding a group must not cost O(groups)", n, took)
	}
}

// TestPendingAgainstModel drives a set with random adds, sorts and savepoint
// round trips — across the linear, indexed and sorted-run ways it finds a
// group — and checks it against a map after every step's lookup and at the
// end in full.
func TestPendingAgainstModel(t *testing.T) {
	type gid struct {
		tree id.Tree
		key  string
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPending()
		model := map[gid]int64{}
		var snap []Group
		var snapModel map[gid]int64
		universe := 1 + rng.Intn(300)
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(100); {
			case r < 2:
				p.Sort(0)
			case r < 3:
				snap, snapModel = p.Snapshot(), map[gid]int64{}
				for k, v := range model {
					snapModel[k] = v
				}
			case r < 4 && snapModel != nil:
				p.Restore(snap)
				model = map[gid]int64{}
				for k, v := range snapModel {
					model[k] = v
				}
			default:
				n := rng.Intn(universe)
				if rng.Intn(4) == 0 {
					n = step % universe // runs of in-order arrivals
				}
				k := gid{id.Tree(1 + n%3), fmt.Sprintf("k%04d", n)}
				_, had := model[k]
				g, created := p.Group(k.tree, []byte(k.key))
				if created == had {
					t.Fatalf("seed %d step %d: created = %v for a group the model has: %v", seed, step, created, had)
				}
				g.Add(0, Delta{Int: 1})
				model[k]++
			}
			if p.Len() != len(model) {
				t.Fatalf("seed %d step %d: %d groups, model has %d", seed, step, p.Len(), len(model))
			}
		}
		p.Sort(0)
		for i := 0; i < p.Len(); i++ {
			g := p.At(i)
			if i > 0 && p.At(i-1).compare(g.Tree, g.Key) >= 0 {
				t.Fatalf("seed %d: groups %d and %d out of order", seed, i-1, i)
			}
			if want := model[gid{g.Tree, string(g.Key)}]; len(g.Deltas) != 1 || g.Deltas[0].Int != want {
				t.Fatalf("seed %d: group %d/%s = %+v, want %d", seed, g.Tree, g.Key, g.Deltas, want)
			}
		}
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
// source-row changes of four cells each, sorted and walked once, then dropped.
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
		p.Sort(0)
		for j := 0; j < p.Len(); j++ {
			p.At(j).Net()
		}
	}
}
