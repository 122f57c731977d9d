package applier

import (
	"reflect"
	"testing"

	"repro/internal/id"
	"repro/internal/wal"
)

func batch(ts uint64, groups ...GroupDelta) *Batch {
	return &Batch{TS: ts, Groups: groups}
}

func TestCoalescerMergesPerGroup(t *testing.T) {
	c := NewCoalescer()
	in, co := c.Add(batch(1, GroupDelta{Tree: 7, Key: "a", Deltas: []wal.ColDelta{
		{Col: 0, Int: 1}, {Col: 1, Int: 10},
	}}))
	if in != 2 || co != 0 {
		t.Fatalf("first add: in=%d coalesced=%d, want 2/0", in, co)
	}
	in, co = c.Add(batch(2, GroupDelta{Tree: 7, Key: "a", Deltas: []wal.ColDelta{
		{Col: 0, Int: 1}, {Col: 1, Int: -4},
	}}))
	if in != 2 || co != 2 {
		t.Fatalf("second add: in=%d coalesced=%d, want 2/2", in, co)
	}
	got := c.Take()
	want := []GroupDelta{{Tree: 7, Key: "a", Deltas: []wal.ColDelta{
		{Col: 0, Int: 2}, {Col: 1, Int: 6},
	}, TS: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Take = %+v, want %+v", got, want)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after Take = %d, want 0", c.Len())
	}
}

func TestCoalescerKeepsIntAndFloatCellsExact(t *testing.T) {
	c := NewCoalescer()
	c.Add(batch(1, GroupDelta{Tree: 3, Key: "k", Deltas: []wal.ColDelta{
		{Col: 2, Int: 5},
		{Col: 2, IsFloat: true, Float: 0.5},
	}}))
	c.Add(batch(2, GroupDelta{Tree: 3, Key: "k", Deltas: []wal.ColDelta{
		{Col: 2, IsFloat: true, Float: 0.25},
	}}))
	got := c.Take()
	want := []GroupDelta{{Tree: 3, Key: "k", Deltas: []wal.ColDelta{
		{Col: 2, Int: 5},
		{Col: 2, IsFloat: true, Float: 0.75},
	}, TS: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Take = %+v, want %+v", got, want)
	}
}

func TestCoalescerTakeSortsAcrossTreesAndKeys(t *testing.T) {
	c := NewCoalescer()
	c.Add(batch(1,
		GroupDelta{Tree: 9, Key: "b", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		GroupDelta{Tree: 2, Key: "z", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		GroupDelta{Tree: 9, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
	))
	got := c.Take()
	order := []struct {
		tree id.Tree
		key  string
	}{{2, "z"}, {9, "a"}, {9, "b"}}
	if len(got) != len(order) {
		t.Fatalf("Take returned %d groups, want %d", len(got), len(order))
	}
	for i, o := range order {
		if got[i].Tree != o.tree || got[i].Key != o.key {
			t.Fatalf("Take[%d] = (%d,%q), want (%d,%q)", i, got[i].Tree, got[i].Key, o.tree, o.key)
		}
	}
}

// TestCoalescerDropApplied: a group is already in its view when its newest
// contributing commit is at or below the view's watermark — the boundary
// commit included — and still owed when any contributor is above it.
func TestCoalescerDropApplied(t *testing.T) {
	c := NewCoalescer()
	one := []wal.ColDelta{{Col: 0, Int: 1}}
	c.Add(batch(4,
		GroupDelta{Tree: 4, Key: "a", Deltas: one},
		GroupDelta{Tree: 4, Key: "b", Deltas: one},
		GroupDelta{Tree: 5, Key: "a", Deltas: one},
	))
	c.Add(batch(5, GroupDelta{Tree: 4, Key: "b", Deltas: one}))
	wm := map[id.Tree]uint64{4: 4, 5: 3}
	c.DropApplied(func(tree id.Tree) uint64 { return wm[tree] })
	got := c.Take()
	if len(got) != 2 || got[0].Tree != 4 || got[0].Key != "b" || got[0].TS != 5 || got[1].Tree != 5 || got[1].TS != 4 {
		t.Fatalf("after DropApplied, Take = %+v, want (4,b)@5 and (5,a)@4", got)
	}
	// A requeued group keeps its timestamp: the retry is judged the same way.
	c.AddGroups(got)
	wm[5] = 4
	c.DropApplied(func(tree id.Tree) uint64 { return wm[tree] })
	if got := c.Take(); len(got) != 1 || got[0].Tree != 4 {
		t.Fatalf("after the second DropApplied, Take = %+v, want (4,b) only", got)
	}
}

func TestCoalescerThreadsSpansAndPublishClock(t *testing.T) {
	c := NewCoalescer()
	c.Add(&Batch{TS: 1, WallNs: 500, Span: 11, Groups: []GroupDelta{
		{Tree: 7, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
	}})
	c.Add(&Batch{TS: 2, WallNs: 300, Span: 22, Groups: []GroupDelta{
		{Tree: 7, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		{Tree: 7, Key: "b", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
	}})
	c.Add(&Batch{TS: 3, WallNs: 900, Span: 11, Groups: []GroupDelta{ // dup span
		{Tree: 7, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
	}})
	if got := c.OldestPendingWallNs(7); got != 300 {
		t.Fatalf("OldestPendingWallNs = %d, want 300", got)
	}
	if got := c.OldestPendingWallNs(9); got != 0 {
		t.Fatalf("OldestPendingWallNs of idle tree = %d, want 0", got)
	}
	taken := c.Take()
	if len(taken) != 2 {
		t.Fatalf("Take returned %d groups, want 2", len(taken))
	}
	a := taken[0] // (7,"a") sorts first
	if !reflect.DeepEqual(a.Spans, []uint64{11, 22}) {
		t.Fatalf("group a spans = %v, want [11 22] (deduped, arrival order)", a.Spans)
	}
	if a.OldestWallNs != 300 {
		t.Fatalf("group a OldestWallNs = %d, want the earliest publish 300", a.OldestWallNs)
	}
	// A failed round's re-queue keeps causality: spans and clock survive.
	c.AddGroups(taken)
	c.Add(&Batch{TS: 4, WallNs: 1000, Span: 33, Groups: []GroupDelta{
		{Tree: 7, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
	}})
	retaken := c.Take()
	if !reflect.DeepEqual(retaken[0].Spans, []uint64{11, 22, 33}) {
		t.Fatalf("requeued spans = %v, want [11 22 33]", retaken[0].Spans)
	}
	if retaken[0].OldestWallNs != 300 {
		t.Fatalf("requeued OldestWallNs = %d, want 300", retaken[0].OldestWallNs)
	}

	// The span cap bounds a hot group's list.
	c2 := NewCoalescer()
	for i := uint64(1); i <= 2*MaxGroupSpans; i++ {
		c2.Add(&Batch{TS: i, WallNs: int64(i), Span: i, Groups: []GroupDelta{
			{Tree: 1, Key: "hot", Deltas: []wal.ColDelta{{Col: 0, Int: 1}}},
		}})
	}
	hot := c2.Take()
	if len(hot[0].Spans) != MaxGroupSpans {
		t.Fatalf("hot group holds %d spans, want capped at %d", len(hot[0].Spans), MaxGroupSpans)
	}
	if hot[0].Spans[0] != 1 {
		t.Fatalf("span cap evicted the oldest contributor: %v", hot[0].Spans)
	}
}

func TestCoalescerAddGroupsRequeues(t *testing.T) {
	c := NewCoalescer()
	c.Add(batch(1, GroupDelta{Tree: 1, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 2}}}))
	taken := c.Take()
	// Simulate a failed round racing a new publish, then the re-queue.
	c.Add(batch(2, GroupDelta{Tree: 1, Key: "a", Deltas: []wal.ColDelta{{Col: 0, Int: 3}}}))
	c.AddGroups(taken)
	got := c.Take()
	if len(got) != 1 || got[0].Deltas[0].Int != 5 {
		t.Fatalf("requeued merge = %+v, want single group Int 5", got)
	}
}
