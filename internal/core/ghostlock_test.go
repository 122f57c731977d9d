package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/txn"
)

// These tests pin what keeps a ghost in place for the transaction that
// targets it: nothing but the lock manager. Each is single-goroutine — the
// cleaner runs on the test's goroutine between the transaction's statements.

// beginCleanup is begin with the transaction rolled back at test end if a
// failed assertion left it open (Close waits for open transactions).
func beginCleanup(t *testing.T, db *DB) *Tx {
	t.Helper()
	tx := begin(t, db, txn.ReadCommitted)
	t.Cleanup(func() { tx.Rollback() })
	return tx
}

// TestCleanerBlockedByELock: a user transaction that creates a group leaves
// the row's existence to one system transaction, which inserts it as a
// ghost, and holds only an E lock on it, never an X lock. With a pending
// delta on the ghost group, that E lock keeps the cleaner (IX on the tree, X
// on the key) from erasing anything; the commit fold then finds its row.
func TestCleanerBlockedByELock(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	view := mustView(t, db, "branch_totals")
	vtree := db.tree(view.ID)

	tx := beginCleanup(t, db)
	sys := db.met.Engine.SysTxns.Load()
	if err := tx.Insert("accounts", acctRow(1, 99, 5)); err != nil {
		t.Fatal(err)
	}
	if vtree.GhostCount() != 1 {
		t.Fatalf("ghosts = %d, want the new group's", vtree.GhostCount())
	}
	if got := db.met.Engine.SysTxns.Load() - sys; got != 1 {
		t.Fatalf("creating a group ran %d system transactions, want 1", got)
	}
	group := lock.KeyResource(view.ID, record.EncodeKey(record.Row{record.Int(99)}))
	if held := db.lm.HeldMode(tx.t.ID, group); held != lock.ModeE {
		t.Fatalf("the user transaction holds %v on the new group's row, want E", held)
	}
	if got := db.met.Escrow.PendingRows.Load(); got != 1 {
		t.Fatalf("pending rows = %d, want 1", got)
	}
	sys, lsn := db.met.Engine.SysTxns.Load(), db.log.NextLSN()
	if n := db.CleanGhosts(); n != 0 {
		t.Fatalf("CleanGhosts erased %d ghosts under a held E lock", n)
	}
	// Skipping a busy ghost is free: no system transaction, nothing logged.
	if db.met.Engine.SysTxns.Load() != sys || db.log.NextLSN() != lsn {
		t.Fatalf("skipping a busy ghost ran %d system transactions, log moved %d -> %d",
			db.met.Engine.SysTxns.Load()-sys, lsn, db.log.NextLSN())
	}
	mustCommit(t, tx)
	if count, sum, ok := branchTotal(t, db, 99); !ok || count != 1 || sum != 5 {
		t.Fatalf("branch 99 = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db)
}

// TestCleanerBlockedByEscalatedLock: once the holder's E key locks have been
// escalated to an X tree lock (and released), only the cleaner's intent lock
// on the tree still excludes it.
func TestCleanerBlockedByEscalatedLock(t *testing.T) {
	db := openTestDB(t, Options{EscalationThreshold: 1})
	setupBanking(t, db, catalog.StrategyEscrow)
	view := mustView(t, db, "branch_totals")
	vtree := db.tree(view.ID)

	tx := beginCleanup(t, db)
	for i, branch := range []int64{98, 99} {
		if err := tx.Insert("accounts", acctRow(int64(i+1), branch, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Metrics().Engine.Escalations == 0 {
		t.Fatal("no escalation happened")
	}
	if n := db.lm.CountKeyLocks(tx.t.ID, view.ID); n != 0 {
		t.Fatalf("holder still has %d key locks on the view after escalation", n)
	}
	if vtree.GhostCount() != 2 {
		t.Fatalf("ghosts = %d, want 2", vtree.GhostCount())
	}
	sys := db.met.Engine.SysTxns.Load()
	if n := db.CleanGhosts(); n != 0 {
		t.Fatalf("CleanGhosts erased %d ghosts under an escalated tree lock", n)
	}
	// A locked tree ends the view's sweep at its first ghost.
	if got := db.met.Engine.SysTxns.Load() - sys; got != 1 {
		t.Fatalf("a locked tree cost the cleaner %d system transactions, want 1", got)
	}
	mustCommit(t, tx)
	for _, branch := range []int64{98, 99} {
		if count, sum, ok := branchTotal(t, db, branch); !ok || count != 1 || sum != 5 {
			t.Fatalf("branch %d = %d/%d/%v", branch, count, sum, ok)
		}
	}
	checkConsistent(t, db)
}

// TestAbortLeavesErasableGhostAndNoResidue: abort drops the pending set with
// the transaction — nothing is left to discard anywhere — and its locks, so
// the ghost goes on the next sweep.
func TestAbortLeavesErasableGhostAndNoResidue(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := beginCleanup(t, db)
	if err := tx.Insert("accounts", acctRow(2, 99, 5)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(150)}); err != nil {
		t.Fatal(err)
	}
	if got := db.met.Escrow.PendingRows.Load(); got != 2 {
		t.Fatalf("pending rows = %d, want 2", got)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := db.met.Escrow.PendingRows.Load(); got != 0 {
		t.Fatalf("pending rows after abort = %d", got)
	}
	if n := db.CleanGhosts(); n != 1 {
		t.Fatalf("CleanGhosts = %d, want the aborted group's ghost", n)
	}
	if count, sum, ok := branchTotal(t, db, 7); !ok || count != 1 || sum != 100 {
		t.Fatalf("branch 7 = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db)
}

// TestNestedSavepointZeroCrossing: the inner savepoint is taken while a
// group's cells sit at exactly zero (an insert undone by a delete); rolling
// back to it must return them to exactly zero, and rolling back to the outer
// one — taken before the transaction touched any view — must empty the set.
func TestNestedSavepointZeroCrossing(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := beginCleanup(t, db)
	outer, err := tx.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", acctRow(2, 7, 20)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("accounts", record.Row{record.Int(2)}); err != nil {
		t.Fatal(err)
	}
	inner, err := tx.Savepoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", acctRow(3, 7, 30)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", acctRow(4, 8, 40)); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(inner); err != nil {
		t.Fatal(err)
	}
	if got := tx.pending.Len(); got != 1 {
		t.Fatalf("groups after inner rollback = %d, want 1", got)
	}
	if net := tx.pending.At(0).Net(); len(net) != 0 {
		t.Fatalf("branch 7 cells after inner rollback = %+v, want all zero", net)
	}
	// The savepoint is reusable: diverge again, roll back again.
	if err := tx.Insert("accounts", acctRow(5, 7, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.RollbackTo(inner); err != nil {
		t.Fatal(err)
	}
	if net := tx.pending.At(0).Net(); len(net) != 0 {
		t.Fatalf("branch 7 cells after second inner rollback = %+v", net)
	}
	if err := tx.RollbackTo(outer); err != nil {
		t.Fatal(err)
	}
	if tx.pending.Len() != 0 || db.met.Escrow.PendingRows.Load() != 0 {
		t.Fatalf("outer rollback left %d groups, gauge %d", tx.pending.Len(), db.met.Escrow.PendingRows.Load())
	}
	if err := tx.Insert("accounts", acctRow(6, 7, 7)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if count, sum, ok := branchTotal(t, db, 7); !ok || count != 2 || sum != 107 {
		t.Fatalf("branch 7 = %d/%d/%v", count, sum, ok)
	}
	if _, _, ok := branchTotal(t, db, 8); ok {
		t.Fatal("rolled-back group visible")
	}
	checkConsistent(t, db)
}
