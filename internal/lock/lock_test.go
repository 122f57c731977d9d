package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/id"
)

var res1 = KeyResource(1, []byte("a"))

func TestCompatibilityMatrix(t *testing.T) {
	type pair struct{ a, b Mode }
	compat := map[pair]bool{
		{ModeIS, ModeIS}: true, {ModeIS, ModeIX}: true, {ModeIS, ModeS}: true,
		{ModeIS, ModeU}: true, {ModeIS, ModeX}: false, {ModeIS, ModeE}: true,
		{ModeIX, ModeIX}: true, {ModeIX, ModeS}: false, {ModeIX, ModeU}: false,
		{ModeIX, ModeX}: false, {ModeIX, ModeE}: true,
		{ModeS, ModeS}: true, {ModeS, ModeU}: true, {ModeS, ModeX}: false, {ModeS, ModeE}: false,
		{ModeU, ModeU}: false, {ModeU, ModeX}: false, {ModeU, ModeE}: false,
		{ModeX, ModeX}: false, {ModeX, ModeE}: false,
		{ModeE, ModeE}: true,
	}
	for p, want := range compat {
		if got := Compatible(p.a, p.b); got != want {
			t.Errorf("Compatible(%s,%s) = %v, want %v", p.a, p.b, got, want)
		}
		// The matrix is symmetric.
		if got := Compatible(p.b, p.a); got != want {
			t.Errorf("Compatible(%s,%s) = %v, want %v (symmetry)", p.b, p.a, got, want)
		}
	}
	for _, m := range []Mode{ModeIS, ModeIX, ModeS, ModeU, ModeX, ModeE} {
		if !Compatible(ModeNone, m) || !Compatible(m, ModeNone) {
			t.Errorf("ModeNone should be compatible with %s", m)
		}
	}
}

func TestSupLattice(t *testing.T) {
	modes := []Mode{ModeNone, ModeIS, ModeIX, ModeS, ModeU, ModeX, ModeE}
	for _, a := range modes {
		for _, b := range modes {
			s := Sup(a, b)
			if Sup(a, b) != Sup(b, a) {
				t.Errorf("Sup(%s,%s) not commutative", a, b)
			}
			if Sup(a, a) != a {
				t.Errorf("Sup(%s,%s) != %s", a, a, a)
			}
			// The sup must be at least as restrictive as both inputs: any
			// mode incompatible with a or b is incompatible with s.
			for _, other := range modes {
				if other == ModeNone {
					continue
				}
				if (!Compatible(other, a) || !Compatible(other, b)) && Compatible(other, s) {
					t.Errorf("Sup(%s,%s)=%s weaker than inputs vs %s", a, b, s, other)
				}
			}
			if !Covers(s, a) || !Covers(s, b) {
				t.Errorf("Sup(%s,%s)=%s does not cover inputs", a, b, s)
			}
		}
	}
}

func TestGrantAndRelease(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res1, ModeS, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, res1, ModeS, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(1, res1); got != ModeS {
		t.Fatalf("held mode = %s", got)
	}
	// Re-request covered mode is a no-op.
	if err := m.Lock(1, res1, ModeIS, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.HeldMode(1, res1); got != ModeS {
		t.Fatalf("held mode after covered re-request = %s", got)
	}
	m.ReleaseAll(1)
	if got := m.HeldMode(1, res1); got != ModeNone {
		t.Fatalf("held after release = %s", got)
	}
	m.ReleaseAll(2)
}

func TestXBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	if err := m.Lock(1, res1, ModeX, 0); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- m.Lock(2, res1, ModeX, time.Second) }()
	select {
	case err := <-acquired:
		t.Fatalf("second X granted while first held: %v", err)
	case <-time.After(scaled(30 * time.Millisecond)):
	}
	m.ReleaseAll(1)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
}

// TestFree: Free answers what a new requester would be told — compatible
// holders leave the resource free, an incompatible one or a waiter does not —
// and asks without requesting anything.
func TestFree(t *testing.T) {
	m := NewManager()
	defer m.Close()
	if !m.Free(res1, ModeX) {
		t.Fatal("an untouched resource is not free")
	}
	if err := m.Lock(1, res1, ModeE, 0); err != nil {
		t.Fatal(err)
	}
	if !m.Free(res1, ModeE) || m.Free(res1, ModeX) {
		t.Fatalf("under E: free for E = %v (want true), for X = %v (want false)", m.Free(res1, ModeE), m.Free(res1, ModeX))
	}
	// A queued X makes later E requesters wait too.
	queued := make(chan error, 1)
	go func() { queued <- m.Lock(2, res1, ModeX, time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); m.Free(res1, ModeE); {
		if time.Now().After(deadline) {
			t.Fatal("resource still free for E with an X request queued")
		}
		time.Sleep(time.Millisecond)
	}
	m.ReleaseAll(1)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if !m.Free(res1, ModeX) {
		t.Fatal("not free after every holder released")
	}
	if got := m.Snapshot().Requests; got != 2 {
		t.Fatalf("Free counted as a request: %d requests, want 2", got)
	}
}

func TestEscrowConcurrentGrants(t *testing.T) {
	m := NewManager()
	for txn := id.Txn(1); txn <= 32; txn++ {
		if err := m.Lock(txn, res1, ModeE, time.Second); err != nil {
			t.Fatalf("txn %d: %v", txn, err)
		}
	}
	// A reader (S) must block while escrow holders exist.
	blocked := make(chan error, 1)
	go func() { blocked <- m.Lock(100, res1, ModeS, time.Second) }()
	select {
	case err := <-blocked:
		t.Fatalf("S granted alongside E: %v", err)
	case <-time.After(scaled(30 * time.Millisecond)):
	}
	for txn := id.Txn(1); txn <= 32; txn++ {
		m.ReleaseAll(txn)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}

func TestTimeout(t *testing.T) {
	m := NewManager()
	m.Lock(1, res1, ModeX, 0)
	err := m.Lock(2, res1, ModeS, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	st := m.Snapshot()
	if st.Timeouts != 1 || st.Waits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// After the timeout the queue is clean: a new compatible request works.
	m.ReleaseAll(1)
	if err := m.Lock(3, res1, ModeX, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	m := NewManager()
	resA := KeyResource(1, []byte("a"))
	resB := KeyResource(1, []byte("b"))
	m.Lock(1, resA, ModeX, 0)
	m.Lock(2, resB, ModeX, 0)

	done1 := make(chan error, 1)
	go func() { done1 <- m.Lock(1, resB, ModeX, 2*time.Second) }()
	settle(30 * time.Millisecond) // let txn 1 block
	err2 := m.Lock(2, resA, ModeX, 2*time.Second)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("txn 2 err = %v, want deadlock", err2)
	}
	// Victim aborts, releasing its locks; txn 1 proceeds.
	m.ReleaseAll(2)
	if err := <-done1; err != nil {
		t.Fatalf("txn 1 err = %v", err)
	}
	if m.Snapshot().Deadlocks != 1 {
		t.Fatalf("deadlock count = %d", m.Snapshot().Deadlocks)
	}
}

func TestThreePartyDeadlockChain(t *testing.T) {
	// A cycle through three transactions: 1→2→3→1. The last blocker (txn 3)
	// completes the cycle and must be chosen as victim.
	m := NewManager()
	resA := KeyResource(1, []byte("a"))
	resB := KeyResource(1, []byte("b"))
	resC := KeyResource(1, []byte("c"))
	m.Lock(1, resA, ModeX, 0)
	m.Lock(2, resB, ModeX, 0)
	m.Lock(3, resC, ModeX, 0)

	d1 := make(chan error, 1)
	go func() { d1 <- m.Lock(1, resB, ModeX, 3*time.Second) }() // 1 waits on 2
	settle(30 * time.Millisecond)
	d2 := make(chan error, 1)
	go func() { d2 <- m.Lock(2, resC, ModeX, 3*time.Second) }() // 2 waits on 3
	settle(30 * time.Millisecond)
	err3 := m.Lock(3, resA, ModeX, 3*time.Second) // closes the cycle
	if !errors.Is(err3, ErrDeadlock) {
		t.Fatalf("txn 3 err = %v, want deadlock", err3)
	}
	m.ReleaseAll(3)
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

func TestSeparateNamespacesDoNotConflict(t *testing.T) {
	// Resources are exact byte strings: a key and a prefixed variant of the
	// same key (the engine's gap namespace) never conflict.
	m := NewManager()
	row := KeyResource(1, []byte("k"))
	gap := KeyResource(1, append([]byte{0x01}, []byte("k")...))
	if err := m.Lock(1, row, ModeX, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(2, gap, ModeX, 0); err != nil {
		t.Fatalf("gap lock blocked by row lock: %v", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
}

func TestConversionDeadlock(t *testing.T) {
	// Two S holders both converting to X is the classic conversion deadlock.
	m := NewManager()
	m.Lock(1, res1, ModeS, 0)
	m.Lock(2, res1, ModeS, 0)
	done1 := make(chan error, 1)
	go func() { done1 <- m.Lock(1, res1, ModeX, 2*time.Second) }()
	settle(30 * time.Millisecond)
	err2 := m.Lock(2, res1, ModeX, 2*time.Second)
	if !errors.Is(err2, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err2)
	}
	m.ReleaseAll(2)
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if m.HeldMode(1, res1) != ModeX {
		t.Fatal("txn 1 did not convert to X")
	}
}

func TestUpgradePriorityOverNewRequests(t *testing.T) {
	m := NewManager()
	m.Lock(1, res1, ModeS, 0)
	m.Lock(2, res1, ModeS, 0)
	// Txn 3 queues for X behind the two S holders.
	got3 := make(chan error, 1)
	go func() { got3 <- m.Lock(3, res1, ModeX, 2*time.Second) }()
	settle(30 * time.Millisecond)
	// Txn 2 converts S->X: must be queued ahead of txn 3.
	got2 := make(chan error, 1)
	go func() { got2 <- m.Lock(2, res1, ModeX, 2*time.Second) }()
	settle(30 * time.Millisecond)
	m.ReleaseAll(1)
	if err := <-got2; err != nil {
		t.Fatalf("conversion failed: %v", err)
	}
	select {
	case err := <-got3:
		t.Fatalf("new X granted before conversion finished: %v", err)
	default:
	}
	m.ReleaseAll(2)
	if err := <-got3; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

func TestFIFOFairness(t *testing.T) {
	// A stream of S requests must not starve a waiting X.
	m := NewManager()
	m.Lock(1, res1, ModeS, 0)
	gotX := make(chan error, 1)
	go func() { gotX <- m.Lock(2, res1, ModeX, 2*time.Second) }()
	settle(20 * time.Millisecond)
	// New S requests arrive while X waits; they must queue behind it.
	gotS := make(chan error, 1)
	go func() { gotS <- m.Lock(3, res1, ModeS, 2*time.Second) }()
	settle(20 * time.Millisecond)
	select {
	case <-gotS:
		t.Fatal("late S overtook waiting X")
	default:
	}
	m.ReleaseAll(1)
	if err := <-gotX; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-gotS; err != nil {
		t.Fatal(err)
	}
}

func TestUnlockSingleResource(t *testing.T) {
	m := NewManager()
	resB := KeyResource(1, []byte("b"))
	m.Lock(1, res1, ModeX, 0)
	m.Lock(1, resB, ModeX, 0)
	m.Unlock(1, res1)
	if m.HeldMode(1, res1) != ModeNone || m.HeldMode(1, resB) != ModeX {
		t.Fatal("Unlock released wrong resource")
	}
	// Unlock of something not held is a no-op.
	m.Unlock(2, res1)
	m.Unlock(1, KeyResource(9, []byte("zz")))
	m.ReleaseAll(1)
}

func TestCountAndReleaseKeyLocks(t *testing.T) {
	m := NewManager()
	for i := 0; i < 5; i++ {
		m.Lock(1, KeyResource(7, []byte{byte(i)}), ModeX, 0)
	}
	m.Lock(1, TreeResource(7), ModeIX, 0)
	m.Lock(1, KeyResource(8, []byte("other")), ModeX, 0)
	if got := m.CountKeyLocks(1, 7); got != 5 {
		t.Fatalf("CountKeyLocks = %d", got)
	}
	m.ReleaseKeyLocks(1, 7)
	if got := m.CountKeyLocks(1, 7); got != 0 {
		t.Fatalf("after release, CountKeyLocks = %d", got)
	}
	if m.HeldMode(1, TreeResource(7)) != ModeIX {
		t.Fatal("tree lock dropped by ReleaseKeyLocks")
	}
	if m.HeldMode(1, KeyResource(8, []byte("other"))) != ModeX {
		t.Fatal("other tree's key lock dropped")
	}
	m.ReleaseAll(1)
}

// TestStressNoIncompatibleGrants hammers the manager from many goroutines and
// verifies the core safety property: no two incompatible locks are ever
// granted simultaneously. An X holder flips a shared counter that escrow/S
// holders inspect.
func TestStressNoIncompatibleGrants(t *testing.T) {
	m := NewManager()
	res := KeyResource(1, []byte("hot"))
	var exclusive atomic.Int32
	var sharedHolders atomic.Int32
	var wg sync.WaitGroup
	var violations atomic.Int32
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := id.Txn(g + 1)
			for i := 0; i < 300; i++ {
				switch g % 3 {
				case 0: // X
					if err := m.Lock(txn, res, ModeX, 5*time.Second); err != nil {
						continue
					}
					if sharedHolders.Load() != 0 || exclusive.Add(1) != 1 {
						violations.Add(1)
					}
					exclusive.Add(-1)
					m.ReleaseAll(txn)
				case 1: // S
					if err := m.Lock(txn, res, ModeS, 5*time.Second); err != nil {
						continue
					}
					sharedHolders.Add(1)
					if exclusive.Load() != 0 {
						violations.Add(1)
					}
					sharedHolders.Add(-1)
					m.ReleaseAll(txn)
				default: // E
					if err := m.Lock(txn, res, ModeE, 5*time.Second); err != nil {
						continue
					}
					sharedHolders.Add(1)
					if exclusive.Load() != 0 {
						violations.Add(1)
					}
					sharedHolders.Add(-1)
					m.ReleaseAll(txn)
				}
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d incompatible co-grants observed", v)
	}
	// The lock table must be empty at the end.
	resources, holders := m.residentState()
	if resources != 0 || holders != 0 {
		t.Fatalf("leaked state: %d resources, %d holders", resources, holders)
	}
}

func TestResourceString(t *testing.T) {
	if s := TreeResource(3).String(); s != "tree-3" {
		t.Fatalf("tree resource string = %q", s)
	}
	if s := KeyResource(3, []byte{0xAB}).String(); s != "tree-3[ab]" {
		t.Fatalf("key resource string = %q", s)
	}
}

func BenchmarkUncontendedLockRelease(b *testing.B) {
	m := NewManager()
	res := KeyResource(1, []byte("k"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := id.Txn(i + 1)
		m.Lock(txn, res, ModeX, 0)
		m.ReleaseAll(txn)
	}
}

func BenchmarkEscrowSharedGrant(b *testing.B) {
	m := NewManager()
	res := KeyResource(1, []byte("hot"))
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			txn := id.Txn(next.Add(1))
			m.Lock(txn, res, ModeE, 0)
			m.ReleaseAll(txn)
		}
	})
}
