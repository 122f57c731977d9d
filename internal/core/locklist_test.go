package core

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// lockResources sums the lock table's resources over every shard.
func lockResources(db *DB) int {
	n := 0
	for _, s := range db.lm.Snapshot().PerShard {
		n += s.Resources
	}
	return n
}

// TestCommitLockTrips: the lock requests one read-committed transaction makes
// that reach a lock-table shard, and what it leaves behind. A repeated
// intention lock is answered from the transaction's own lock list, the read's
// instant S lock costs one visit and creates no state, and the insert's
// successor-gap X lock is a grant and a release with no separate probe. After
// each commit the lock table is empty and the transaction's list holds
// nothing: release walked the list, not the shards.
func TestCommitLockTrips(t *testing.T) {
	db := openTestDB(t, Options{ScrubInterval: -1, MVCCPruneInterval: -1})
	if err := db.CreateTable("accounts", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	insertAccounts(t, db, acctRow(1, 1, 100), acctRow(2, 2, 100), acctRow(5, 1, 100))
	tbl, err := db.Catalog().Table("accounts")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		run      func(tx *Tx) error
		requests int64
	}{
		// IS, S(1), IS→IX, X(1), S(2), X(2): the second IS and IX come from
		// the list.
		{"transfer", func(tx *Tx) error {
			for id := int64(1); id <= 2; id++ {
				pk := record.Row{record.Int(id)}
				row, ok, err := tx.Get("accounts", pk)
				if err != nil || !ok {
					t.Fatalf("Get %d: %v %v", id, ok, err)
				}
				if err := tx.Update("accounts", pk, map[int]record.Value{2: record.Int(row[2].AsInt() + 1)}); err != nil {
					return err
				}
			}
			return nil
		}, 6},
		// IX, X(3), X on the successor's gap.
		{"insert", func(tx *Tx) error { return tx.Insert("accounts", acctRow(3, 1, 10)) }, 3},
		// IX, X(3).
		{"delete", func(tx *Tx) error { return tx.Delete("accounts", record.Row{record.Int(3)}) }, 2},
	} {
		before := db.Metrics().Lock.Requests
		tx := begin(t, db, txn.ReadCommitted)
		if err := c.run(tx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := db.Metrics().Lock.Requests - before; got != c.requests {
			t.Errorf("%s: %d lock requests reached the table, want %d", c.name, got, c.requests)
		}
		mustCommit(t, tx)
		if n := lockResources(db); n != 0 {
			t.Errorf("%s: %d resources left in the lock table after commit", c.name, n)
		}
		if n := tx.t.Locks.KeyLocks(tbl.ID); n != 0 {
			t.Errorf("%s: the committed transaction's list still counts %d key locks", c.name, n)
		}
	}
	checkConsistent(t, db)
}

// TestReadCommittedGetWaitsForWriter: the instant S lock of a read-committed
// Get still waits for an uncommitted X holder, and then reads what it
// committed.
func TestReadCommittedGetWaitsForWriter(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	writer := begin(t, db, txn.ReadCommitted)
	if err := writer.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(250)}); err != nil {
		t.Fatal(err)
	}
	waits := db.Metrics().Lock.Waits
	got := make(chan int64, 1)
	go func() {
		reader, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			got <- -1
			return
		}
		row, ok, err := reader.Get("accounts", record.Row{record.Int(1)})
		if cerr := reader.Commit(); err != nil || cerr != nil || !ok {
			got <- -1
			return
		}
		got <- row[2].AsInt()
	}()
	waitLockWaits(t, db, waits+1)
	select {
	case bal := <-got:
		t.Fatalf("the read returned %d past an uncommitted X lock", bal)
	default:
	}
	mustCommit(t, writer)
	if bal := <-got; bal != 250 {
		t.Fatalf("the read after the writer's commit saw balance %d, want 250", bal)
	}
	if n := lockResources(db); n != 0 {
		t.Fatalf("%d resources left in the lock table", n)
	}
}
