package txn

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/id"
	"repro/internal/wal"
)

func TestBeginCommitAbort(t *testing.T) {
	m := NewManager(1)
	t1 := m.Begin(false, ReadCommitted)
	t2 := m.Begin(true, Serializable)
	if t1.ID != 1 || t2.ID != 2 {
		t.Fatalf("IDs = %d, %d", t1.ID, t2.ID)
	}
	if !t2.Sys || t1.Sys {
		t.Fatal("Sys flags wrong")
	}
	var t3 Txn
	m.Start(&t3, false, Snapshot)
	if t3.ID != 3 || t3.Locks.Txn != 3 || !t3.Active() || t3.Isolation != Snapshot {
		t.Fatalf("Start: ID %d, lock list of %d, state %s, level %s", t3.ID, t3.Locks.Txn, t3.State(), t3.Isolation)
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if t1.State() != StateCommitted || t1.Active() {
		t.Fatal("t1 state wrong")
	}
	if err := m.Abort(t2); err != nil {
		t.Fatal(err)
	}
	if t2.State() != StateAborted {
		t.Fatal("t2 state wrong")
	}
	// Double finish fails.
	if err := m.Commit(t1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := m.Abort(t1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("abort after commit err = %v", err)
	}
}

func TestRecordOpAndOps(t *testing.T) {
	m := NewManager(1)
	tx := m.Begin(false, RepeatableRead)
	r1 := &wal.Record{LSN: 1, Type: wal.TInsert}
	r2 := &wal.Record{LSN: 2, Type: wal.TDelete}
	tx.RecordOp(r1)
	tx.RecordOp(r2)
	ops := tx.Ops()
	if len(ops) != 2 || ops[0] != r1 || ops[1] != r2 {
		t.Fatalf("Ops = %v", ops)
	}
	m.Commit(tx)
	if err := tx.RecordOp(r1); !errors.Is(err, ErrNotActive) {
		t.Fatalf("RecordOp after commit err = %v", err)
	}
}

func TestSavepoints(t *testing.T) {
	m := NewManager(1)
	tx := m.Begin(false, ReadCommitted)
	r1 := &wal.Record{LSN: 1}
	r2 := &wal.Record{LSN: 2}
	r3 := &wal.Record{LSN: 3}
	tx.RecordOp(r1)
	sp := tx.Savepoint()
	tx.RecordOp(r2)
	tx.RecordOp(r3)
	undo := tx.OpsSince(sp)
	if len(undo) != 2 || undo[0] != r3 || undo[1] != r2 {
		t.Fatalf("OpsSince = %v", undo)
	}
	if got := tx.Ops(); len(got) != 1 || got[0] != r1 {
		t.Fatalf("chain after partial rollback = %v", got)
	}
	// Out-of-range savepoints yield nothing.
	if got := tx.OpsSince(Savepoint(99)); got != nil {
		t.Fatalf("bad savepoint = %v", got)
	}
	if got := tx.OpsSince(Savepoint(-1)); got != nil {
		t.Fatalf("negative savepoint = %v", got)
	}
}

func TestObserveID(t *testing.T) {
	m := NewManager(1)
	m.ObserveID(100)
	tx := m.Begin(false, ReadCommitted)
	if tx.ID != 101 {
		t.Fatalf("ID after ObserveID = %d", tx.ID)
	}
	m.ObserveID(50) // lower observation must not move the allocator back
	tx2 := m.Begin(false, ReadCommitted)
	if tx2.ID != 102 {
		t.Fatalf("ID after low ObserveID = %d", tx2.ID)
	}
}

func TestNewManagerZeroFirstID(t *testing.T) {
	m := NewManager(0)
	if tx := m.Begin(false, ReadCommitted); tx.ID != 1 {
		t.Fatalf("first ID = %d", tx.ID)
	}
}

func TestConcurrentBegin(t *testing.T) {
	m := NewManager(1)
	const goroutines = 16
	const per = 200
	var wg sync.WaitGroup
	ids := make(chan id.Txn, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := m.Begin(false, ReadCommitted)
				ids <- tx.ID
				m.Commit(tx)
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[id.Txn]bool{}
	for tid := range ids {
		if seen[tid] {
			t.Fatalf("duplicate txn ID %d", tid)
		}
		seen[tid] = true
	}
	if len(seen) != goroutines*per {
		t.Fatalf("ids=%d, want %d", len(seen), goroutines*per)
	}
}

func TestStateStrings(t *testing.T) {
	if StateActive.String() != "active" || StateCommitted.String() != "committed" ||
		StateAborted.String() != "aborted" {
		t.Fatal("state strings")
	}
	if ReadCommitted.String() != "read-committed" || Serializable.String() != "serializable" ||
		RepeatableRead.String() != "repeatable-read" {
		t.Fatal("level strings")
	}
}
