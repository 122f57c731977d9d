package core

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// TestRepeatableReadViewReadBlocksEscrow: RR view reads take held S locks,
// so — like serializable — they conflict with in-flight escrow writers.
// (Only ReadCommitted gets the lock-free committed-value read.)
func TestRepeatableReadViewReadBlocksEscrow(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	writer := begin(t, db, txn.ReadCommitted)
	if err := writer.Insert("accounts", acctRow(2, 7, 900)); err != nil {
		t.Fatal(err)
	}
	waits := db.Metrics().Lock.Waits
	got := make(chan int64, 1)
	go func() {
		reader := begin(t, db, txn.RepeatableRead)
		defer reader.Rollback()
		res, ok, err := reader.GetViewRow("branch_totals", record.Row{record.Int(7)})
		if err != nil || !ok {
			got <- -1
			return
		}
		got <- res[1].AsInt()
	}()
	waitLockWaits(t, db, waits+1)
	select {
	case v := <-got:
		t.Fatalf("RR view reader did not block (saw %d)", v)
	default:
	}
	mustCommit(t, writer)
	select {
	case v := <-got:
		if v != 1000 {
			t.Fatalf("RR reader saw %d, want 1000", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RR reader stuck")
	}
	db.waitQuiesced()
}

// TestSerializableViewScanTreeLock: serializable view scans take a tree S
// lock, blocking any writer of the view's base until the reader finishes.
func TestSerializableViewScanTreeLock(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	reader := begin(t, db, txn.Serializable)
	if _, err := reader.ScanView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		w, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			done <- err
			return
		}
		if err := w.Insert("accounts", acctRow(2, 8, 1)); err != nil {
			w.Rollback()
			done <- err
			return
		}
		done <- w.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("writer bypassed serializable view scan: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	mustCommit(t, reader)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, db)
}

// TestReadCommittedGetReleasesLock: RC point reads take only a momentary S
// lock, so a subsequent writer of the same row does not block on the
// still-open reading transaction.
func TestReadCommittedGetReleasesLock(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	reader := begin(t, db, txn.ReadCommitted)
	if _, _, err := reader.Get("accounts", record.Row{record.Int(1)}); err != nil {
		t.Fatal(err)
	}
	// Reader stays open; the writer must not block.
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Update("accounts", record.Row{record.Int(1)},
		map[int]record.Value{2: record.Int(50)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	// RC permits the non-repeatable read.
	row, _, _ := reader.Get("accounts", record.Row{record.Int(1)})
	if row[2].AsInt() != 50 {
		t.Fatalf("RC reread = %d, want 50", row[2].AsInt())
	}
	mustCommit(t, reader)
	checkConsistent(t, db)
}
