package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// TestDescribeEngine exercises the engine-level report: it must reflect the
// lock manager's stripe count and the lock/contention counters.
func TestDescribeEngine(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 1, 100), acctRow(2, 1, 50))

	tx := begin(t, db, txn.ReadCommitted)
	if err := tx.Update("accounts", acctRow(1, 1, 100)[:1],
		map[int]record.Value{2: record.Int(150)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	m := db.Metrics()
	if m.Lock.Shards < 8 || m.Lock.Shards&(m.Lock.Shards-1) != 0 {
		t.Fatalf("want a power of two of at least 8 lock shards in stats, got %d", m.Lock.Shards)
	}
	if len(m.Lock.PerShard) != m.Lock.Shards {
		t.Fatalf("want %d per-shard entries, got %d", m.Lock.Shards, len(m.Lock.PerShard))
	}
	out := db.Describe()
	for _, want := range []string{
		fmt.Sprintf("%d lock shards", m.Lock.Shards),
		"commits",
		"lock",
		"deadlock checks",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	if m.Lock.Requests == 0 {
		t.Fatal("expected nonzero lock requests after a committed update")
	}
}
