package core

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/record"
	"repro/internal/txn"
)

// scanRange runs a range scan and returns the ids seen.
func scanRange(t *testing.T, tx *Tx, lo, hi int64) []int64 {
	t.Helper()
	var loRow, hiRow record.Row
	if lo >= 0 {
		loRow = record.Row{record.Int(lo)}
	}
	if hi >= 0 {
		hiRow = record.Row{record.Int(hi)}
	}
	var got []int64
	if err := tx.ScanTable("accounts", loRow, hiRow, func(r record.Row) bool {
		got = append(got, r[0].AsInt())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// tryInsert attempts an insert in its own transaction and reports whether it
// finished within the timeout.
func tryInsert(db *DB, row record.Row, timeout time.Duration) (finished bool, err error) {
	done := make(chan error, 1)
	go func() {
		tx, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			done <- err
			return
		}
		if err := tx.Insert("accounts", row); err != nil {
			tx.Rollback()
			done <- err
			return
		}
		done <- tx.Commit()
	}()
	select {
	case err := <-done:
		return true, err
	case <-time.After(timeout):
		return false, nil
	}
}

func TestSerializableBlocksPhantomInGap(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(20, 1, 1), acctRow(30, 1, 1))

	reader := begin(t, db, txn.Serializable)
	got := scanRange(t, reader, 10, 31) // covers all three rows + gaps
	if len(got) != 3 {
		t.Fatalf("scan = %v", got)
	}
	// An insert into the middle gap (15) must block: its next-key lock
	// targets id=20, which the scan holds in S.
	finished, _ := tryInsert(db, acctRow(15, 1, 1), 80*time.Millisecond)
	if finished {
		t.Fatal("phantom insert into scanned gap did not block")
	}
	// An insert into the tail gap (25) must also block (successor id=30).
	finished, _ = tryInsert(db, acctRow(25, 1, 1), 80*time.Millisecond)
	if finished {
		t.Fatal("phantom insert into tail gap did not block")
	}
	mustCommit(t, reader)
	// The blocked inserts complete once the reader is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tx := begin(t, db, txn.ReadCommitted)
		n := 0
		tx.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true })
		mustCommit(t, tx)
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocked inserts never completed (%d rows)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.waitQuiesced()
	checkConsistent(t, db)
}

func TestSerializableEndAnchorBlocksInsertBeyondLastRow(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1))

	reader := begin(t, db, txn.Serializable)
	// Unbounded scan: the end anchor is the tree's infinity resource.
	got := scanRange(t, reader, -1, -1)
	if len(got) != 1 {
		t.Fatalf("scan = %v", got)
	}
	finished, _ := tryInsert(db, acctRow(99, 1, 1), 80*time.Millisecond)
	if finished {
		t.Fatal("insert past the last row did not block on the infinity anchor")
	}
	mustCommit(t, reader)
	db.waitQuiesced()
}

func TestSerializableDoesNotBlockOutsideRange(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(20, 1, 1), acctRow(30, 1, 1))

	reader := begin(t, db, txn.Serializable)
	got := scanRange(t, reader, 10, 20) // locks row 10 and anchor 20
	if len(got) != 1 {
		t.Fatalf("scan = %v", got)
	}
	// Inserting beyond the anchor (id 25, successor 30) is unrelated to the
	// scanned range and must not block.
	finished, err := tryInsert(db, acctRow(25, 1, 1), 2*time.Second)
	if !finished || err != nil {
		t.Fatalf("unrelated insert blocked: finished=%v err=%v", finished, err)
	}
	mustCommit(t, reader)
	checkConsistent(t, db)
}

func TestRepeatableReadAllowsPhantoms(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(30, 1, 1))

	reader := begin(t, db, txn.RepeatableRead)
	got := scanRange(t, reader, -1, -1)
	if len(got) != 2 {
		t.Fatalf("scan = %v", got)
	}
	// RR holds row locks but not gap locks: the phantom insert succeeds.
	finished, err := tryInsert(db, acctRow(20, 1, 1), 2*time.Second)
	if !finished || err != nil {
		t.Fatalf("RR blocked a phantom: finished=%v err=%v", finished, err)
	}
	// The new row is a phantom on rescan (allowed at RR)...
	got = scanRange(t, reader, -1, -1)
	if len(got) != 3 {
		t.Fatalf("rescan = %v", got)
	}
	// ...but the rows already read must not have changed (no test of value
	// change here: row-lock behavior is covered by
	// TestRepeatableReadHoldsRowLocks).
	mustCommit(t, reader)
	checkConsistent(t, db)
}

func TestInsertSplitGapKeepsRangeCoverage(t *testing.T) {
	// A serializable scan covers (10, 30] via the gap resource of key 30.
	// When the SAME transaction then inserts 20, the gap splits: gap(30) now
	// covers only (20, 30], and without a held lock on the new key's own gap
	// — (10, 20] — a concurrent insert of 15 would probe gap(20), find no
	// holder, and land inside the scanned range (a phantom).
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(30, 1, 1))

	reader := begin(t, db, txn.Serializable)
	got := scanRange(t, reader, 10, 31)
	if len(got) != 2 {
		t.Fatalf("scan = %v", got)
	}
	// The reader splits its own scanned gap.
	if err := reader.Insert("accounts", acctRow(20, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// The lower half of the split gap must stay covered.
	finished, _ := tryInsert(db, acctRow(15, 1, 1), 80*time.Millisecond)
	if finished {
		t.Fatal("phantom insert into split gap (10,20] did not block")
	}
	// The upper half is still covered by gap(30).
	finished, _ = tryInsert(db, acctRow(25, 1, 1), 80*time.Millisecond)
	if finished {
		t.Fatal("phantom insert into split gap (20,30] did not block")
	}
	// The reader's own rescan stays stable: its insert plus the two originals.
	got = scanRange(t, reader, 10, 31)
	if len(got) != 3 {
		t.Fatalf("rescan = %v", got)
	}
	mustCommit(t, reader)
	deadline := time.Now().Add(5 * time.Second)
	for {
		tx := begin(t, db, txn.ReadCommitted)
		n := 0
		tx.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true })
		mustCommit(t, tx)
		if n == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocked inserts never completed (%d rows)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.waitQuiesced()
	checkConsistent(t, db)
}

func TestMomentaryReadKeepsHeldRangeLock(t *testing.T) {
	// A serializable scan's end anchor (the first key at/after hi) is covered
	// only by its *gap* resource — the anchor row itself carries no S lock, so
	// HeldMode on the key resource reports ModeNone. A momentary read of that
	// key inside the same transaction must NOT release the S lock it takes:
	// at serializable the row was read, so it has to stay stable to commit.
	// The old release condition (held == ModeNone alone) dropped it.
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(30, 1, 1))

	reader := begin(t, db, txn.Serializable)
	got := scanRange(t, reader, 10, 20) // returns row 10; anchor gap is key 30's
	if len(got) != 1 {
		t.Fatalf("scan = %v", got)
	}
	key30 := record.EncodeKey(record.Row{record.Int(30)})
	tbl, err := db.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	res := lock.KeyResource(tbl.ID, key30)
	if held := db.lm.HeldMode(reader.t.ID, res); held != lock.ModeNone {
		t.Fatalf("anchor row lock before momentary read = %v, want none", held)
	}
	// A momentary read path touches the anchor row inside the serializable
	// transaction.
	if err := db.momentaryS(&reader.t, tbl.ID, key30); err != nil {
		t.Fatal(err)
	}
	if held := db.lm.HeldMode(reader.t.ID, res); held != lock.ModeS {
		t.Fatalf("anchor row lock after momentary read = %v, want S (released?)", held)
	}
	// Functional consequence: a concurrent delete of the read row must block.
	done := make(chan error, 1)
	go func() {
		w, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			done <- err
			return
		}
		if err := w.Delete("accounts", record.Row{record.Int(30)}); err != nil {
			w.Rollback()
			done <- err
			return
		}
		done <- w.Commit()
	}()
	select {
	case err := <-done:
		t.Fatalf("delete of momentarily-read row did not block: %v", err)
	case <-time.After(80 * time.Millisecond):
	}
	mustCommit(t, reader)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	db.waitQuiesced()
	checkConsistent(t, db)
}

func TestInstantInsertLockReleases(t *testing.T) {
	// The next-key insert lock is instant-duration: after an insert commits
	// no residual lock blocks a serializable scan of the region.
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(10, 1, 1), acctRow(20, 1, 1))

	// Writer inserts 15 but has NOT committed: its own X(15) persists, but
	// the instant lock on 20 must already be gone.
	writer := begin(t, db, txn.ReadCommitted)
	if err := writer.Insert("accounts", acctRow(15, 1, 1)); err != nil {
		t.Fatal(err)
	}
	other := begin(t, db, txn.ReadCommitted)
	row, ok, err := other.Get("accounts", record.Row{record.Int(20)})
	if err != nil || !ok || row[0].AsInt() != 20 {
		t.Fatalf("row 20 blocked by residual insert lock: %v %v %v", row, ok, err)
	}
	mustCommit(t, other)
	mustCommit(t, writer)
	checkConsistent(t, db)
}
