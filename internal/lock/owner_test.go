package lock

import (
	"context"
	"testing"
	"time"
)

// TestOwnerList: grants link into the owner's list and release walks it. A
// covered re-request on a tree is answered from the list without reaching a
// shard, an instant lock on a free key leaves no state, key locks are counted
// per tree, and after ReleaseOwner the list, its tree slots and the table are
// empty.
func TestOwnerList(t *testing.T) {
	m := NewManagerOpts(Options{Shards: 4})
	ctx := context.Background()
	o := &Owner{Txn: 1}
	tree, other := TreeResource(7), TreeResource(8)
	requests := func() int64 { return m.Snapshot().Requests }

	for _, step := range []struct {
		res   Resource
		mode  Mode
		prior Mode
		trips int64
	}{
		{tree, ModeIS, ModeNone, 1},
		{tree, ModeIS, ModeIS, 0}, // covered: from the list
		{tree, ModeIX, ModeIS, 1}, // a conversion reaches the shard
		{tree, ModeIS, ModeIX, 0},
		{KeyResource(7, []byte("a")), ModeX, ModeNone, 1},
		{KeyResource(7, []byte("b")), ModeX, ModeNone, 1},
		{KeyResource(7, []byte("a")), ModeS, ModeX, 1}, // keys always ask the shard
		{other, ModeIX, ModeNone, 1},
		{KeyResource(8, []byte("a")), ModeE, ModeNone, 1},
	} {
		before := requests()
		prior, err := m.Acquire(ctx, o, step.res, step.mode, time.Second)
		if err != nil || prior != step.prior {
			t.Fatalf("Acquire %s %s = %s, %v; want prior %s", step.res, step.mode, prior, err, step.prior)
		}
		if got := requests() - before; got != step.trips {
			t.Fatalf("Acquire %s %s made %d shard requests, want %d", step.res, step.mode, got, step.trips)
		}
	}
	if o.KeyLocks(7) != 2 || o.KeyLocks(8) != 1 || o.KeyLocks(9) != 0 {
		t.Fatalf("KeyLocks = %d/%d/%d, want 2/1/0", o.KeyLocks(7), o.KeyLocks(8), o.KeyLocks(9))
	}
	if got := m.CountKeyLocks(1, 7); got != 2 {
		t.Fatalf("CountKeyLocks through the tree grant = %d, want 2", got)
	}

	// An instant S on a key nobody holds: one visit, no state.
	before := requests()
	if err := m.Instant(ctx, o, KeyResource(7, []byte("z")), ModeS, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := requests() - before; got != 1 {
		t.Fatalf("instant S made %d requests, want 1", got)
	}
	if resources, holders := m.residentState(); resources != 5 || holders != 5 {
		t.Fatalf("table holds %d resources, %d grants; want the 5 held", resources, holders)
	}
	// An instant S on a key the owner holds in X keeps the X.
	if err := m.Instant(ctx, o, KeyResource(7, []byte("a")), ModeS, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(1, KeyResource(7, []byte("a"))); got != ModeX {
		t.Fatalf("instant S over a held X left %s", got)
	}

	m.Release(o, KeyResource(7, []byte("b")))
	if o.KeyLocks(7) != 1 {
		t.Fatalf("after Release, KeyLocks(7) = %d, want 1", o.KeyLocks(7))
	}
	m.ReleaseKeys(o, 8)
	if o.KeyLocks(8) != 0 || m.HeldMode(1, other) != ModeIX {
		t.Fatalf("ReleaseKeys: KeyLocks(8) = %d, tree held %s", o.KeyLocks(8), m.HeldMode(1, other))
	}
	m.ReleaseOwner(o)
	if o.head != nil || len(o.trees) != 0 {
		t.Fatalf("list not empty after ReleaseOwner: head %v, %d tree slots", o.head, len(o.trees))
	}
	if resources, holders := m.residentState(); resources != 0 || holders != 0 {
		t.Fatalf("leaked state: %d resources, %d holders", resources, holders)
	}
	// The emptied list starts over: the tree is not answered from a stale slot.
	before = requests()
	if _, err := m.Acquire(ctx, o, tree, ModeIS, time.Second); err != nil || requests()-before != 1 {
		t.Fatalf("re-acquire after release: %v, %d requests", err, requests()-before)
	}
	m.ReleaseOwner(o)
}

// TestInstantWaits: an instant lock that conflicts waits like any request,
// then leaves nothing held.
func TestInstantWaits(t *testing.T) {
	m := NewManager()
	ctx := context.Background()
	holder, reader := &Owner{Txn: 1}, &Owner{Txn: 2}
	if _, err := m.Acquire(ctx, holder, res1, ModeX, time.Second); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Instant(ctx, reader, res1, ModeS, 5*time.Second) }()
	waitBlocked(t, m, 1)
	select {
	case err := <-done:
		t.Fatalf("instant S returned past an X holder: %v", err)
	default:
	}
	m.ReleaseOwner(holder)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(2, res1); got != ModeNone {
		t.Fatalf("instant S left %s held", got)
	}
	if resources, holders := m.residentState(); resources != 0 || holders != 0 {
		t.Fatalf("leaked state: %d resources, %d holders", resources, holders)
	}
}
