package btree

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

// TestTombstoneLifecycle walks one key through the version-chain states: a
// pinned insert of an absent key leaves a tombstone, Put revives it, Delete
// tombstones it again while the chain holds versions, and ReleaseChain
// removes it for good once the chain is quiescent. Throughout, only Entry and
// ScanAll may see the tombstone.
func TestTombstoneLifecycle(t *testing.T) {
	tr := New()
	tr.Put(key(1), []byte("a"), false)
	tr.Put(key(3), []byte("c"), false)

	hidden := func(when string) {
		t.Helper()
		if _, _, ok := tr.Get(key(2)); ok {
			t.Fatalf("%s: Get sees the tombstone", when)
		}
		if _, ok := tr.Has(key(2)); ok {
			t.Fatalf("%s: Has sees the tombstone", when)
		}
		if tr.Len() != 2 || tr.GhostCount() != 0 {
			t.Fatalf("%s: Len/GhostCount = %d/%d, want 2/0", when, tr.Len(), tr.GhostCount())
		}
		if items := tr.Items(nil, nil, true); len(items) != 2 {
			t.Fatalf("%s: Items yields %d entries, want 2", when, len(items))
		}
		n := 0
		tr.ScanReverse(nil, nil, true, func(Item) bool { n++; return true })
		if n != 2 {
			t.Fatalf("%s: ScanReverse yields %d entries, want 2", when, n)
		}
		if succ, ok := tr.Successor(key(1)); !ok || !bytes.Equal(succ, key(3)) {
			t.Fatalf("%s: Successor(k1) = %q, want k3", when, succ)
		}
		if ceil, ok := tr.Ceiling(key(2)); !ok || !bytes.Equal(ceil, key(3)) {
			t.Fatalf("%s: Ceiling(k2) = %q, want k3", when, ceil)
		}
		if tr.SetGhost(key(2), true) || tr.Delete(key(2)) {
			t.Fatalf("%s: SetGhost/Delete acted on the tombstone", when)
		}
		it, ok := tr.Entry(key(2))
		if !ok || !it.Dead || it.Chain == nil {
			t.Fatalf("%s: Entry = %+v %v, want a tombstone with its chain", when, it, ok)
		}
		all := 0
		tr.ScanAll(nil, nil, func(Item) bool { all++; return true })
		if all != 3 {
			t.Fatalf("%s: ScanAll yields %d entries, want 3", when, all)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	ins := &wal.Record{Type: wal.TInsert, Key: key(2), NewVal: []byte("b")}
	ch, created := tr.Pin(key(2), ins, 7)
	if !created {
		t.Fatal("Pin on an absent key did not create a chain")
	}
	hidden("pinned, not yet inserted")
	if tr.ReleaseChain(key(2), ch) {
		t.Fatal("ReleaseChain dropped a chain with an operation in flight")
	}

	if tr.Put(key(2), []byte("b"), false) {
		t.Fatal("Put over a tombstone reported a replaced entry")
	}
	if v, _, ok := tr.Get(key(2)); !ok || string(v) != "b" || tr.Len() != 3 {
		t.Fatalf("revived entry: Get = %q %v, Len = %d", v, ok, tr.Len())
	}
	if it, _ := tr.Entry(key(2)); it.Dead || it.Chain != ch {
		t.Fatalf("revived entry lost its chain: %+v", it)
	}
	ch.Stamp(ins, 5)

	del := &wal.Record{Type: wal.TDelete, Key: key(2)}
	if ch2, created := tr.Pin(key(2), del, 8); created || ch2 != ch {
		t.Fatal("second Pin did not reuse the entry's chain")
	}
	if !tr.Delete(key(2)) {
		t.Fatal("Delete of a live chained entry reported nothing deleted")
	}
	hidden("deleted with versions on the chain")
	ch.Unpin(del)
	if tr.ReleaseChain(key(2), ch) {
		t.Fatal("ReleaseChain dropped a chain still holding a version")
	}
}

// TestReleaseChain: a quiescent chain leaves a live entry in place and takes
// a tombstone with it.
func TestReleaseChain(t *testing.T) {
	tr := New()
	tr.Put(key(1), []byte("a"), false)
	up := &wal.Record{Type: wal.TUpdate, Key: key(1), NewVal: []byte("b")}
	ch, _ := tr.Pin(key(1), up, 7)
	ch.Unpin(up)
	if !tr.ReleaseChain(key(1), ch) {
		t.Fatal("quiescent chain not released")
	}
	if it, ok := tr.Entry(key(1)); !ok || it.Chain != nil || string(it.Val) != "a" {
		t.Fatalf("after release: %+v %v, want the chainless live entry", it, ok)
	}

	ins := &wal.Record{Type: wal.TInsert, Key: key(2), NewVal: []byte("x")}
	ch, _ = tr.Pin(key(2), ins, 8)
	ch.Unpin(ins) // the insert rolled back before it applied
	if !tr.ReleaseChain(key(2), ch) {
		t.Fatal("quiescent tombstone chain not released")
	}
	if _, ok := tr.Entry(key(2)); ok {
		t.Fatal("tombstone survived the release of its chain")
	}
	if !tr.ReleaseChain(key(2), ch) {
		t.Fatal("ReleaseChain of a chain already off the tree must report it gone")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReset: the fault hook rewrites the value and drops the chain in one
// operation, and refuses while an operation is in flight.
func TestReset(t *testing.T) {
	tr := New()
	tr.Put(key(1), []byte("good"), false)
	up := &wal.Record{Type: wal.TUpdate, Key: key(1), NewVal: []byte("next")}
	ch, _ := tr.Pin(key(1), up, 7)
	if tr.Reset(key(1), []byte("bad")) {
		t.Fatal("Reset went through with an operation in flight")
	}
	ch.Stamp(up, 3)
	if !tr.Reset(key(1), []byte("bad")) {
		t.Fatal("Reset refused a settled entry")
	}
	if it, _ := tr.Entry(key(1)); it.Chain != nil || string(it.Val) != "bad" {
		t.Fatalf("after Reset: %+v, want the chainless rewritten entry", it)
	}
	if tr.Reset(key(9), []byte("x")) {
		t.Fatal("Reset of a missing key reported success")
	}
}

// TestTombstonesSurviveRebalancing: chains and tombstones ride along through
// splits, borrows, and merges.
func TestTombstonesSurviveRebalancing(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i += 2 {
		tr.Put(key(i), []byte("v"), false)
	}
	chains := map[int]bool{}
	for i := 1; i < n; i += 20 { // tombstones between the live keys
		tr.Pin(key(i), &wal.Record{Type: wal.TInsert, Key: key(i)}, 7)
		chains[i] = true
	}
	for i := 0; i < n; i += 4 { // force merges and borrows
		tr.Delete(key(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	dead := 0
	tr.ScanAll(nil, nil, func(it Item) bool {
		if it.Dead {
			dead++
			if it.Chain == nil {
				t.Fatalf("tombstone %q lost its chain", it.Key)
			}
		}
		return true
	})
	if dead != len(chains) || tr.Len() != n/4 {
		t.Fatalf("tombstones = %d (want %d), Len = %d (want %d)", dead, len(chains), tr.Len(), n/4)
	}
}

// TestScanAllStopsEarly: a scan whose callback stops after n entries has
// visited exactly n entries, wherever it starts.
func TestScanAllStopsEarly(t *testing.T) {
	tr := New()
	for i := 0; i < 5000; i++ {
		tr.Put(key(i), []byte("v"), i%7 == 0)
	}
	for _, lo := range [][]byte{nil, key(2500)} {
		visited := 0
		tr.ScanAll(lo, nil, func(Item) bool {
			visited++
			return visited < 10
		})
		if visited != 10 {
			t.Fatalf("lo=%q: early-stopping scan visited %d entries, want 10", lo, visited)
		}
	}
}

// TestPinnedMutations: PutPinned and DeletePinned pin the operation on the
// row's chain in the mutation's own descent — a new chain is seeded with the
// committed image the mutation replaces, an absent key's chain with absence —
// and a pinned delete leaves a tombstone carrying the chain.
func TestPinnedMutations(t *testing.T) {
	tr := New()
	tr.Put(key(1), []byte("a"), false)

	up := &wal.Record{Type: wal.TUpdate, Key: key(1), NewVal: []byte("b")}
	ch, created := tr.PutPinned(key(1), []byte("b"), false, up, 7)
	if !created || ch == nil || !ch.Pinned() {
		t.Fatalf("PutPinned over a chainless entry: chain %v created %v", ch, created)
	}
	if v, _, _ := tr.Get(key(1)); string(v) != "b" {
		t.Fatalf("inline image %q, want b", v)
	}
	if r := ch.Resolve(0, 0); !r.Present || string(r.Val) != "a" {
		t.Fatalf("the chain's base is %+v, want the replaced image a", r)
	}

	ins := &wal.Record{Type: wal.TInsert, Key: key(2), NewVal: []byte("x")}
	ch2, created := tr.PutPinned(key(2), []byte("x"), false, ins, 7)
	if !created || tr.Len() != 2 {
		t.Fatalf("PutPinned of a new key: created %v, Len %d", created, tr.Len())
	}
	if r := ch2.Resolve(0, 0); r.Present {
		t.Fatalf("a new key's chain base is %+v, want absent", r)
	}

	del := &wal.Record{Type: wal.TDelete, Key: key(1)}
	if again, created := tr.DeletePinned(key(1), del, 7); created || again != ch {
		t.Fatal("DeletePinned did not reuse the entry's chain")
	}
	if _, _, ok := tr.Get(key(1)); ok || tr.Len() != 1 {
		t.Fatalf("deleted key still visible: Len %d", tr.Len())
	}
	if it, ok := tr.Entry(key(1)); !ok || !it.Dead || it.Chain != ch {
		t.Fatalf("Entry = %+v %v, want a tombstone with its chain", it, ok)
	}

	gone := &wal.Record{Type: wal.TDelete, Key: key(9)}
	if ch9, created := tr.DeletePinned(key(9), gone, 7); !created || ch9 == nil {
		t.Fatal("DeletePinned of an absent key pinned no chain")
	}
	if it, ok := tr.Entry(key(9)); !ok || !it.Dead {
		t.Fatalf("absent key: Entry = %+v %v, want a tombstone", it, ok)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
