package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
)

// pickCrossShard returns two key resources that hash to different shards.
func pickCrossShard(t *testing.T, m *Manager) (Resource, Resource) {
	t.Helper()
	a := KeyResource(1, []byte("anchor"))
	for i := 0; i < 10_000; i++ {
		b := KeyResource(2, []byte(fmt.Sprintf("probe-%d", i)))
		if m.shardIndex(a) != m.shardIndex(b) {
			return a, b
		}
	}
	t.Fatal("could not find resources in distinct shards")
	return Resource{}, Resource{}
}

// TestCrossShardDeadlock builds the two-txn, two-resource cycle with the
// resources in different shards, so no single shard's state contains the
// whole cycle — only the background detector's merged snapshot can see it.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManagerOpts(Options{Shards: 8})
	defer m.Close()
	r1, r2 := pickCrossShard(t, m)

	if err := m.Lock(1, r1, ModeX, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, r2, ModeX, time.Second); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	go func() { errs <- m.Lock(1, r2, ModeX, 5*time.Second) }()
	settle(20 * time.Millisecond) // let txn 1 block first
	go func() { errs <- m.Lock(2, r1, ModeX, 5*time.Second) }()

	first := <-errs
	if !errors.Is(first, ErrDeadlock) {
		t.Fatalf("expected deadlock abort first, got %v", first)
	}
	// The victim must be the younger transaction (2).
	if got := first.Error(); got == "" || !errors.Is(first, ErrDeadlock) {
		t.Fatalf("bad victim error: %v", first)
	}
	m.ReleaseAll(2) // victim aborts, releasing r2
	if err := <-errs; err != nil {
		t.Fatalf("survivor should be granted after victim abort, got %v", err)
	}
	m.ReleaseAll(1)
	if st := m.Snapshot(); st.Deadlocks != 1 {
		t.Fatalf("expected 1 deadlock, stats say %d", st.Deadlocks)
	}
}

// TestConversionPriorityAcrossShards runs the conversion-vs-new-waiter
// ordering check concurrently on resources in two different shards: a
// queued S→X conversion must be granted before an X waiter that arrived
// earlier, on both resources independently.
func TestConversionPriorityAcrossShards(t *testing.T) {
	m := NewManagerOpts(Options{Shards: 8})
	defer m.Close()
	r1, r2 := pickCrossShard(t, m)

	var wg sync.WaitGroup
	for i, res := range []Resource{r1, r2} {
		wg.Add(1)
		go func(base id.Txn, res Resource) {
			defer wg.Done()
			tHold, tConv, tNew := base, base+1, base+2
			if err := m.Lock(tHold, res, ModeS, time.Second); err != nil {
				t.Error(err)
				return
			}
			if err := m.Lock(tConv, res, ModeS, time.Second); err != nil {
				t.Error(err)
				return
			}
			var order []id.Txn
			var mu sync.Mutex
			done := make(chan struct{}, 2)
			go func() { // new X waiter queues first
				if err := m.Lock(tNew, res, ModeX, 5*time.Second); err == nil {
					mu.Lock()
					order = append(order, tNew)
					mu.Unlock()
					m.ReleaseAll(tNew)
				}
				done <- struct{}{}
			}()
			settle(20 * time.Millisecond)
			go func() { // conversion arrives second but must win
				if err := m.Lock(tConv, res, ModeX, 5*time.Second); err == nil {
					mu.Lock()
					order = append(order, tConv)
					mu.Unlock()
					m.ReleaseAll(tConv)
				}
				done <- struct{}{}
			}()
			settle(20 * time.Millisecond)
			m.ReleaseAll(tHold) // unblocks the queue
			<-done
			<-done
			mu.Lock()
			defer mu.Unlock()
			if len(order) != 2 || order[0] != tConv || order[1] != tNew {
				t.Errorf("res %s: want grant order [%d %d], got %v", res, tConv, tNew, order)
			}
		}(id.Txn(1+i*100), res)
	}
	wg.Wait()
}

// TestTimeoutVsGrantRace races the wait timer against the grant: the holder
// releases at roughly the waiter's timeout. Whatever Lock reports must match
// the lock table — nil means the waiter holds the mode, timeout means it
// holds nothing and no state leaks.
func TestTimeoutVsGrantRace(t *testing.T) {
	m := NewManagerOpts(Options{Shards: 4})
	defer m.Close()
	res := KeyResource(9, []byte("raced"))
	for i := 0; i < 200; i++ {
		holder := id.Txn(2*i + 1)
		waiter := id.Txn(2*i + 2)
		if err := m.Lock(holder, res, ModeX, time.Second); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- m.Lock(waiter, res, ModeX, scaled(time.Millisecond)) }()
		settle(time.Millisecond) // land the release right on the timeout
		m.ReleaseAll(holder)
		err := <-done
		if err == nil {
			if got := m.HeldMode(waiter, res); got != ModeX {
				t.Fatalf("iter %d: grant reported but holds %v", i, got)
			}
			m.ReleaseAll(waiter)
		} else {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("iter %d: unexpected error %v", i, err)
			}
			if got := m.HeldMode(waiter, res); got != ModeNone {
				t.Fatalf("iter %d: timeout reported but holds %v", i, got)
			}
		}
	}
	if resources, holders := m.residentState(); resources != 0 || holders != 0 {
		t.Fatalf("leaked state: %d resources, %d holders", resources, holders)
	}
}

// TestIncrementalEdgesMatchRebuild stresses mixed lock traffic and checks
// after every round that the incrementally-maintained waits-for edges equal
// a from-scratch rebuild.
func TestIncrementalEdgesMatchRebuild(t *testing.T) {
	m := NewManagerOpts(Options{Shards: 4})
	defer m.Close()
	modes := []Mode{ModeS, ModeX, ModeE, ModeU}
	var wg sync.WaitGroup
	var stopFlag atomic.Bool
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := id.Txn(1 + g*1_000_000)
			for i := 0; !stopFlag.Load(); i++ {
				txn++
				mode := modes[(g+i)%len(modes)]
				res := KeyResource(id.Tree(i%3), []byte{byte(i % 5)})
				if m.Lock(txn, res, mode, 5*time.Millisecond) == nil {
					// Occasionally convert to force conversion-queue edges.
					if i%7 == 0 {
						m.Lock(txn, res, ModeX, 5*time.Millisecond)
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	deadline := time.After(500 * time.Millisecond)
	for {
		select {
		case <-deadline:
			stopFlag.Store(true)
			wg.Wait()
			if msg := m.checkEdgeConsistency(); msg != "" {
				t.Fatal(msg)
			}
			return
		default:
			if msg := m.checkEdgeConsistency(); msg != "" {
				stopFlag.Store(true)
				wg.Wait()
				t.Fatal(msg)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
