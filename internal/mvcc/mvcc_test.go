package mvcc

import (
	"math"
	"strings"
	"testing"

	"repro/internal/id"
	"repro/internal/wal"
)

func tkey(s string) []byte { return []byte(s) }

func TestPendingInvisibleUntilStamped(t *testing.T) {
	c := NewChain([]byte("v1"), false, true)
	rec := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	c.Pin(rec, 7)

	res := c.Resolve(100, id.None)
	if !res.Present || string(res.Val) != "v1" {
		t.Fatalf("before stamp: got %+v, want committed v1", res)
	}
	// The writing transaction itself sees its pending write.
	if res = c.Resolve(100, 7); string(res.Val) != "v2" {
		t.Fatalf("self read got %q, want v2", res.Val)
	}
	if !c.Pinned() || c.Settled(100) {
		t.Fatal("chain with a pending entry must be pinned and unsettled")
	}

	if n := c.Stamp(rec, 5); n != 2 {
		t.Fatalf("chain length after stamp = %d, want 2", n)
	}
	if res = c.Resolve(4, id.None); string(res.Val) != "v1" {
		t.Fatalf("read below commit ts got %q, want v1", res.Val)
	}
	if res = c.Resolve(5, id.None); string(res.Val) != "v2" {
		t.Fatalf("read at commit ts got %q, want v2", res.Val)
	}
	if c.Pinned() || c.Settled(4) || !c.Settled(5) {
		t.Fatal("stamped chain must settle exactly from its commit timestamp on")
	}
}

func TestUnpinDiscardsPending(t *testing.T) {
	c := NewChain([]byte("v1"), false, true)
	rec := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey("a")}
	c.Pin(rec, 7)
	c.Unpin(rec)
	res := c.Resolve(100, 7)
	if !res.Present || string(res.Val) != "v1" {
		t.Fatalf("after unpin: got %+v, want committed v1", res)
	}
	if !c.Quiescent() {
		t.Fatal("chain with nothing but its base must be quiescent")
	}
}

func TestInsertDeleteVisibility(t *testing.T) {
	c := NewChain(nil, false, false)
	ins := &wal.Record{Type: wal.TInsert, Tree: 1, Key: tkey("a"), NewVal: []byte("v1")}
	c.Pin(ins, 7)
	c.Stamp(ins, 3)
	del := &wal.Record{Type: wal.TDelete, Tree: 1, Key: tkey("a")}
	c.Pin(del, 8)
	c.Stamp(del, 6)

	for _, tc := range []struct {
		ts      uint64
		present bool
	}{{2, false}, {3, true}, {5, true}, {6, false}, {9, false}} {
		if res := c.Resolve(tc.ts, id.None); res.Present != tc.present {
			t.Fatalf("ts %d: present=%v, want %v", tc.ts, res.Present, tc.present)
		}
	}
}

func TestEscrowDeltasLayerOverFullImage(t *testing.T) {
	const base = 100
	c := NewChain([]byte("base"), false, true)
	d1 := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"),
		Deltas: []wal.ColDelta{{Col: 1, Int: 10}}}
	d2 := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"),
		Deltas: []wal.ColDelta{{Col: 1, Int: 5}}}
	c.Pin(d1, 7)
	c.Pin(d2, 8)
	// Folds commit out of timestamp order: d2 stamps ts 4, d1 stamps ts 3.
	c.Stamp(d2, 4)
	c.Stamp(d1, 3)

	// folded applies a resolution's deltas to column 1 of a row whose
	// encoding "base" stands for the value base.
	folded := func(res Resolved) int64 {
		t.Helper()
		if string(res.Val) != "base" {
			t.Fatalf("resolved over %q, want the base image", res.Val)
		}
		v := int64(base)
		for _, d := range res.Deltas {
			if d.Col != 1 || d.IsFloat {
				t.Fatalf("delta %+v, want int deltas on column 1", d)
			}
			v += d.Int
		}
		return v
	}
	for _, tc := range []struct {
		ts   uint64
		want int64
	}{{2, base}, {3, base + 10}, {4, base + 15}} {
		if got := folded(c.Resolve(tc.ts, id.None)); got != tc.want {
			t.Fatalf("ts %d: folds to %d, want %d", tc.ts, got, tc.want)
		}
	}
}

// TestResolveSumsIntDeltasPerColumn: a resolution carries one summed delta
// per int column however many versions hit it, ahead of the float deltas,
// which keep one entry each in chain order; the reader's own pending fold
// merges the same way.
func TestResolveSumsIntDeltasPerColumn(t *testing.T) {
	c := NewChain([]byte("base"), false, true)
	fold := func(ts uint64, txn id.Txn, ds ...wal.ColDelta) {
		rec := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"), Deltas: ds}
		c.Pin(rec, txn)
		if ts > 0 {
			c.Stamp(rec, ts)
		}
	}
	for ts := uint64(1); ts <= 100; ts++ {
		fold(ts, id.Txn(ts), wal.ColDelta{Col: 0, Int: 1}, wal.ColDelta{Col: 1, Int: math.MaxInt64},
			wal.ColDelta{Col: 2, IsFloat: true, Float: float64(ts) / 10})
	}
	fold(0, 500, wal.ColDelta{Col: 0, Int: 1}, wal.ColDelta{Col: 3, Int: 7})

	res := c.Resolve(100, 500)
	// 100 × MaxInt64 wraps around int64 to -100, as 100 one-at-a-time adds do.
	want := []wal.ColDelta{{Col: 0, Int: 101}, {Col: 1, Int: -100}, {Col: 3, Int: 7}}
	if len(res.Deltas) != len(want)+100 {
		t.Fatalf("resolved %d deltas, want %d int sums and 100 floats", len(res.Deltas), len(want))
	}
	for i, w := range want {
		if res.Deltas[i] != w {
			t.Fatalf("int delta %d = %+v, want %+v", i, res.Deltas[i], w)
		}
	}
	for i, d := range res.Deltas[len(want):] {
		if w := (wal.ColDelta{Col: 2, IsFloat: true, Float: float64(i+1) / 10}); d != w {
			t.Fatalf("float delta %d = %+v, want %+v", i, d, w)
		}
	}
}

// TestDeltaOverAbsentImage: a delta newer than a delete (the erase-then-refold
// sequence) resolves as "absent plus deltas" — the caller folds them over an
// empty group — and prunes the same way.
func TestDeltaOverAbsentImage(t *testing.T) {
	c := NewChain([]byte("old"), false, true)
	del := &wal.Record{Type: wal.TDelete, Tree: 2, Key: tkey("g")}
	refold := &wal.Record{Type: wal.TEscrowFold, Tree: 2, Key: tkey("g"),
		Deltas: []wal.ColDelta{{Col: 0, Int: 1}}}
	c.Pin(del, 7)
	c.Stamp(del, 3)
	c.Pin(refold, 8)
	c.Stamp(refold, 5)

	if res := c.Resolve(4, id.None); res.Present || len(res.Deltas) != 0 {
		t.Fatalf("between erase and refold: got %+v, want absent", res)
	}
	res := c.Resolve(5, id.None)
	if res.Present || len(res.Deltas) != 1 {
		t.Fatalf("after refold: got %+v, want absent image + the refold's delta", res)
	}
	var foldedOver []byte = []byte("unset")
	d := Dirty{Tree: 2, Key: tkey("g"), Chain: c}
	d.Prune(10, func(_ id.Tree, val []byte, _ []wal.ColDelta) ([]byte, bool, error) {
		foldedOver = val
		return []byte("fresh"), false, nil
	})
	if foldedOver != nil {
		t.Fatalf("prune folded the refold over %q, want a nil (absent) image", foldedOver)
	}
	if res = c.Resolve(10, id.None); !res.Present || string(res.Val) != "fresh" {
		t.Fatalf("after prune: got %+v, want the folded group", res)
	}
}

func TestPruneFoldsToQuiescence(t *testing.T) {
	c := NewChain([]byte("v1"), false, true)
	d := Dirty{Tree: 1, Key: tkey("a"), Chain: c}
	up := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	c.Pin(up, 7)
	c.Stamp(up, 3)
	fd := &wal.Record{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"),
		Deltas: []wal.ColDelta{{Col: 0, Int: 1}}}
	c.Pin(fd, 8)
	c.Stamp(fd, 5)

	fold := func(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
		return append(append([]byte(nil), val...), '+'), false, nil
	}
	// Horizon below both versions: nothing prunable.
	if n := d.Prune(2, fold); n != 0 {
		t.Fatalf("prune below versions folded %d, want 0", n)
	}
	// Horizon covers the full image only.
	if n := d.Prune(3, fold); n != 1 {
		t.Fatalf("prune at 3 folded %d, want 1", n)
	}
	if res := c.Resolve(3, id.None); string(res.Val) != "v2" || len(res.Deltas) != 0 {
		t.Fatalf("after partial prune: got %+v, want base v2", res)
	}
	if c.Quiescent() {
		t.Fatal("chain still holding a version reported quiescent")
	}
	// Horizon covers everything: the delta folds into the base.
	if n := d.Prune(10, fold); n != 1 {
		t.Fatalf("prune at 10 folded %d, want 1", n)
	}
	if !c.Quiescent() {
		t.Fatal("fully pruned chain not quiescent")
	}
	if res := c.Resolve(10, id.None); string(res.Val) != "v2+" {
		t.Fatalf("after full prune: got %q, want the folded base", res.Val)
	}
}

func TestPruneKeepsPending(t *testing.T) {
	c := NewChain([]byte("v1"), false, true)
	rec := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	c.Pin(rec, 7)
	Dirty{Tree: 1, Key: tkey("a"), Chain: c}.Prune(100, nil)
	if c.Quiescent() {
		t.Fatal("chain with a pending entry reported quiescent after prune")
	}
	if res := c.Resolve(100, 7); string(res.Val) != "v2" {
		t.Fatalf("self read after prune: got %+v", res)
	}
}

func TestSameTimestampLaterOpWins(t *testing.T) {
	c := NewChain(nil, false, false)
	ins := &wal.Record{Type: wal.TInsert, Tree: 1, Key: tkey("a"), NewVal: []byte("v1")}
	up := &wal.Record{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("v2")}
	c.Pin(ins, 7)
	c.Pin(up, 7)
	// One transaction commits both ops at one timestamp, in log order.
	c.Stamp(ins, 4)
	c.Stamp(up, 4)
	if res := c.Resolve(4, id.None); string(res.Val) != "v2" {
		t.Fatalf("same-ts read got %q, want the later op's v2", res.Val)
	}
}

func TestPruneBatchesDeltasAndDropsDeadOnes(t *testing.T) {
	c := NewChain([]byte("seed"), false, true)
	// Delta at ts 2, full image at ts 3, deltas at ts 4 and 5: the ts-2 delta
	// is dead (resolution never overlays deltas older than the newest full
	// image) and the survivors must fold in a single call.
	recs := []*wal.Record{
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		{Type: wal.TUpdate, Tree: 1, Key: tkey("a"), NewVal: []byte("full")},
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 2}}},
		{Type: wal.TEscrowFold, Tree: 1, Key: tkey("a"), Deltas: []wal.ColDelta{{Col: 0, Int: 3}}},
	}
	for i, rec := range recs {
		c.Pin(rec, id.Txn(7+i))
		c.Stamp(rec, uint64(2+i))
	}
	foldCalls := 0
	var foldedDeltas []wal.ColDelta
	var foldedBase string
	fold := func(tree id.Tree, val []byte, deltas []wal.ColDelta) ([]byte, bool, error) {
		foldCalls++
		foldedBase = string(val)
		foldedDeltas = append([]wal.ColDelta(nil), deltas...)
		return []byte("folded"), false, nil
	}
	if n := (Dirty{Tree: 1, Key: tkey("a"), Chain: c}).Prune(100, fold); n != 4 {
		t.Fatalf("pruned %d versions, want 4", n)
	}
	if foldCalls != 1 {
		t.Fatalf("fold called %d times, want 1 batched call", foldCalls)
	}
	if foldedBase != "full" {
		t.Fatalf("fold base %q, want the newest full image", foldedBase)
	}
	if len(foldedDeltas) != 2 || foldedDeltas[0].Int != 2 || foldedDeltas[1].Int != 3 {
		t.Fatalf("fold deltas %v, want the two survivors [2 3] in ts order", foldedDeltas)
	}
	if !c.Quiescent() {
		t.Fatal("chain not quiescent after a covering prune")
	}
}

// TestWorkListRotates: partial rotations walk the queue front to back, and
// chains kept come around again behind the rest — the pruner's rotation —
// while the ring grows past its first capacity and wraps.
func TestWorkListRotates(t *testing.T) {
	var w WorkList
	for _, k := range []string{"a", "b", "c"} {
		w.Add(Dirty{Tree: 1, Key: tkey(k), Chain: NewChain(nil, false, false)})
	}
	seen := func(n int, keep string) string {
		var out []byte
		w.Rotate(n, func(d Dirty) bool {
			out = append(out, d.Key...)
			return strings.Contains(keep, string(d.Key))
		})
		return string(out)
	}
	if got := seen(2, "b"); got != "ab" {
		t.Fatalf("Rotate(2) saw %q, want ab", got)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	if got := seen(0, ""); got != "cb" {
		t.Fatalf("Rotate(all) saw %q, want cb", got)
	}
	if w.Len() != 0 || seen(5, "") != "" {
		t.Fatal("drained work list not empty")
	}
	// Forty chains through a ring of sixteen, kept across rotations: the
	// order survives growth and wrapping.
	var want []byte
	for i := 0; i < 40; i++ {
		k := byte('A' + i)
		want = append(want, k)
		w.Add(Dirty{Tree: 1, Key: []byte{k}, Chain: NewChain(nil, false, false)})
		if i%7 == 6 {
			seen(3, string(want[:3]))
			want = append(want[3:], want[:3]...)
		}
	}
	if got := seen(0, string(want)); got != string(want) {
		t.Fatalf("after growth and wrap saw %q, want %q", got, want)
	}
	keepAll := func(Dirty) bool { return true }
	if a := testing.AllocsPerRun(100, func() { w.Rotate(10, keepAll) }); a != 0 {
		t.Fatalf("a steady-state rotation allocates %.0f times", a)
	}
}
