package core

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// TestDescribeEngine exercises the engine-level report: it must reflect the
// configured stripe count and the lock/contention counters.
func TestDescribeEngine(t *testing.T) {
	db := openTestDB(t, Options{LockShards: 16})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 1, 100), acctRow(2, 1, 50))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", acctRow(1, 1, 100)[:1],
		map[int]record.Value{2: record.Int(150)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	out := db.Describe()
	for _, want := range []string{
		"16 lock shards",
		"commits",
		"lock",
		"deadlock detector",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	st := db.Stats()
	if st.Lock.Shards != 16 {
		t.Fatalf("want 16 lock shards in stats, got %d", st.Lock.Shards)
	}
	if len(st.Lock.PerShard) != 16 {
		t.Fatalf("want 16 per-shard entries, got %d", len(st.Lock.PerShard))
	}
	if st.Lock.Requests == 0 {
		t.Fatal("expected nonzero lock requests after a committed update")
	}
}
