package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// reopen crashes db (flushing the log to the OS) and opens a new instance on
// the same directory, running recovery.
func reopen(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	db.Crash(true)
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	return db2
}

func TestRecoveryCommittedWorkSurvives(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50), acctRow(3, 8, 30))

	db2 := reopen(t, db, dir)
	if db2.RecoverySummary().Fresh {
		t.Fatal("recovery claims fresh database")
	}
	count, sum, ok := func() (int64, int64, bool) {
		tx := begin(t, db2, txn.ReadCommitted)
		defer tx.Rollback()
		res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(7)})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return 0, 0, false
		}
		return res[0].AsInt(), res[1].AsInt(), true
	}()
	if !ok || count != 2 || sum != 150 {
		t.Fatalf("recovered branch 7 = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db2)
}

func TestRecoveryUndoesLoserTransaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// An in-flight transaction with base changes (its escrow deltas are
	// volatile and die with the crash; its base ops must be undone).
	loser := begin(t, db, txn.ReadCommitted)
	if err := loser.Insert("accounts", acctRow(2, 7, 999)); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// Crash without committing. (The gate reader the loser holds is
	// irrelevant post-crash.)
	db2 := reopen(t, db, dir)
	sum := db2.RecoverySummary()
	if sum.Losers != 1 {
		t.Fatalf("losers = %d, want 1", sum.Losers)
	}
	if sum.UndoneOps == 0 {
		t.Fatal("no operations were undone")
	}
	tx := begin(t, db2, txn.ReadCommitted)
	row, ok, _ := tx.Get("accounts", record.Row{record.Int(1)})
	if !ok || row[2].AsInt() != 100 {
		t.Fatalf("row 1 = %v (loser's update survived?)", row)
	}
	if _, ok, _ := tx.Get("accounts", record.Row{record.Int(2)}); ok {
		t.Fatal("loser's insert survived")
	}
	mustCommit(t, tx)
	checkConsistent(t, db2)
}

func TestRecoveryCrashMidCommitFold(t *testing.T) {
	// Crash after the commit-time folds are logged but before the commit
	// record: recovery must undo the folds via logical (inverse-delta) CLRs.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(2, 7, 50)); err != nil {
		t.Fatal(err)
	}
	// Manually run the fold (the first phase of Commit) and crash before
	// the commit record — white-box simulation of a fold-then-die schedule.
	if _, _, err := db.foldSet(&tx.t, tx.pending); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, db, dir)
	if db2.RecoverySummary().Losers != 1 {
		t.Fatalf("losers = %d", db2.RecoverySummary().Losers)
	}
	count, sum, ok := func() (int64, int64, bool) {
		tx := begin(t, db2, txn.ReadCommitted)
		defer tx.Rollback()
		res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(7)})
		if err != nil || !ok {
			return 0, 0, false
		}
		return res[0].AsInt(), res[1].AsInt(), true
	}()
	if !ok || count != 1 || sum != 100 {
		t.Fatalf("branch 7 after fold-undo = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db2)
}

func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	// Arm the fault: the next flush tears mid-record.
	db.log.Sync(0)
	db.log.SetFailAfter(10)
	tx := begin(t, db, txn.ReadCommitted)
	_ = tx.Insert("accounts", acctRow(2, 7, 50))
	tx.Commit() // fails: injected fault

	db.Crash(false)
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.RecoverySummary().Torn {
		t.Fatal("torn tail not reported")
	}
	// The committed prefix survives; the torn transaction does not.
	tx2 := begin(t, db2, txn.ReadCommitted)
	if _, ok, _ := tx2.Get("accounts", record.Row{record.Int(1)}); !ok {
		t.Fatal("pre-fault committed row lost")
	}
	if _, ok, _ := tx2.Get("accounts", record.Row{record.Int(2)}); ok {
		t.Fatal("torn transaction's row survived")
	}
	mustCommit(t, tx2)
	checkConsistent(t, db2)
}

func TestRecoveryRepeatedCrashes(t *testing.T) {
	// Crash during recovery's own undo is simulated by crashing right after
	// a recovery completes and again later; CLRs must keep undo idempotent.
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	loser := begin(t, db, txn.ReadCommitted)
	loser.Insert("accounts", acctRow(2, 7, 999))

	db2 := reopen(t, db, dir) // undoes the loser, logging CLRs
	db3 := reopen(t, db2, dir)
	db4 := reopen(t, db3, dir)
	tx := begin(t, db4, txn.ReadCommitted)
	if _, ok, _ := tx.Get("accounts", record.Row{record.Int(2)}); ok {
		t.Fatal("loser's row resurrected across repeated recoveries")
	}
	mustCommit(t, tx)
	checkConsistent(t, db4)
}

func TestRecoveryDDLSurvivesWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	// No checkpoint ever ran: the schema lives only in the log's DDL records.
	db2 := reopen(t, db, dir)
	if _, err := db2.Catalog().Table("accounts"); err != nil {
		t.Fatal("table lost after recovery")
	}
	if _, err := db2.Catalog().View("branch_totals"); err != nil {
		t.Fatal("view lost after recovery")
	}
	// New transaction IDs do not collide with pre-crash ones.
	tx := begin(t, db2, txn.ReadCommitted)
	if err := tx.Insert("accounts", acctRow(50, 7, 1)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	checkConsistent(t, db2)
}

func TestRecoveryAfterCheckpointPlusLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(2, 7, 50)) // post-checkpoint, log only
	loser := begin(t, db, txn.ReadCommitted)
	loser.Insert("accounts", acctRow(3, 7, 999))

	db2 := reopen(t, db, dir)
	tx := begin(t, db2, txn.ReadCommitted)
	res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(7)})
	if err != nil || !ok || res[0].AsInt() != 2 || res[1].AsInt() != 150 {
		t.Fatalf("after checkpoint+log recovery: %v %v %v", res, ok, err)
	}
	mustCommit(t, tx)
	checkConsistent(t, db2)
}

// TestRecoveryRandomizedCrashPoints runs a deterministic workload, crashes
// after every k-th transaction, and verifies the invariant each time.
func TestRecoveryRandomizedCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("long crash matrix")
	}
	for _, crashAfter := range []int{1, 3, 7, 15} {
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		setupBanking(t, db, catalog.StrategyEscrow)
		rng := rand.New(rand.NewSource(int64(crashAfter)))
		live := map[int64]bool{}
		for i := 0; i < crashAfter*4; i++ {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				t.Fatal(err)
			}
			id := int64(rng.Intn(30))
			var opErr error
			if live[id] && rng.Intn(2) == 0 {
				opErr = tx.Delete("accounts", record.Row{record.Int(id)})
				if opErr == nil {
					delete(live, id)
				}
			} else if !live[id] {
				opErr = tx.Insert("accounts", acctRow(id, id%4, int64(rng.Intn(100))))
				if opErr == nil {
					live[id] = true
				}
			}
			if opErr != nil {
				tx.Rollback()
				continue
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Leave one loser hanging, crash, recover, check.
		loser, _ := db.Begin(txn.ReadCommitted)
		loser.Insert("accounts", acctRow(900, 0, 1))
		db.Crash(true)
		db2, err := Open(dir, Options{GhostCleanInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := db2.CheckConsistency(); err != nil {
			t.Fatalf("crashAfter=%d: %v", crashAfter, err)
		}
		db2.Close()
	}
}
