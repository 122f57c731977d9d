package core

import (
	"testing"
	"time"

	"repro/internal/catalog"
)

// TestWideTransactionDeferredView is a bulk load under a high-cardinality
// view: one transaction inserts 50 000 rows that each open a new view group,
// so its pending set holds 50 000 groups. What a group costs must not depend
// on how many the set already holds. On the reference box the load takes
// 0.45 s (0.8 s with the shared ledger this set replaced); with a set that
// kept its groups in order by inserting (O(groups) per new group) it took
// 6.4 s. The bound sits between, with room for a slower machine.
func TestWideTransactionDeferredView(t *testing.T) {
	if testing.Short() {
		t.Skip("50 000-row transaction")
	}
	const n = 50_000
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyDeferred)
	start := time.Now()
	tx := beginCleanup(t, db)
	for i := int64(0); i < n; i++ {
		// Scrambled group order: new groups land all over the key space.
		if err := tx.Insert("accounts", acctRow(i, (i*7919)%n, 1)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, tx)
	took := time.Since(start)
	t.Logf("%d groups in one transaction: %v", n, took)
	if took > 4*time.Second {
		t.Fatalf("%d groups in one transaction took %v", n, took)
	}
	if err := db.waitDeferredCaughtUp(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count, sum, ok := branchTotal(t, db, 7919); !ok || count != 1 || sum != 1 {
		t.Fatalf("branch 7919 = %d/%d/%v", count, sum, ok)
	}
	checkConsistent(t, db)
}
