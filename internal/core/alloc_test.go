package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/record"
	"repro/internal/txn"
)

// allocDB opens a database with every background loop off (no scrubber, no
// pruner, no ghost cleaner; the idle applier tick allocates nothing), so
// testing.AllocsPerRun counts the calling goroutine's commit path alone.
func allocDB(t *testing.T, strategy catalog.Strategy) *DB {
	t.Helper()
	db := openTestDB(t, Options{ScrubInterval: -1, MVCCPruneInterval: -1})
	if strategy == 0 {
		err := db.CreateTable("accounts", []catalog.Column{
			{Name: "id", Kind: record.KindInt64},
			{Name: "branch", Kind: record.KindInt64},
			{Name: "balance", Kind: record.KindInt64},
		}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		setupBanking(t, db, strategy)
	}
	var rows []record.Row
	for i := int64(0); i < 64; i++ {
		rows = append(rows, acctRow(i, i%8, 1000))
	}
	insertAccounts(t, db, rows...)
	return db
}

// TestCommitAllocBudget is ROADMAP item 2's trajectory as a hermetic upper
// bound: allocations per committed transaction, counted by the runtime and
// independent of the machine. The bounds are ceilings to ratchet down as the
// commit path sheds allocations, never to raise.
//
// Measured by this test when the bounds were last set, parent commit → this
// one: insert+commit with no view 13 → 12; insert+commit under the escrow
// view 25 → 24; a two-update transfer between two branches under the escrow
// view 48 → 47; a read-committed Get and Update of each of two rows with no
// view (the benchmark's transfer) 26 → 25; a read-only snapshot begin, a Get
// and Commit (the benchmark's snapshot reader) 5 → 4, of which the begin and
// commit are one (the transaction handle) and the Get the rest. The
// transaction handle that holds its txn.Txn by value took one off each.
func TestCommitAllocBudget(t *testing.T) {
	insertCommit := func(db *DB) func() {
		next := int64(1 << 20)
		return func() {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				t.Fatal(err)
			}
			next++
			if err := tx.Insert("accounts", acctRow(next, next%8, 10)); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
	}
	transfer := func(db *DB) func() {
		n := int64(0)
		return func() {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				t.Fatal(err)
			}
			n++
			// Accounts 1 and 2 sit in different branches: four source-row
			// changes over two view groups.
			for id := int64(1); id <= 2; id++ {
				bal := 1000 + (2*id-3)*n
				if err := tx.Update("accounts", record.Row{record.Int(id)}, map[int]record.Value{2: record.Int(bal)}); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
		}
	}
	// getUpdate is the benchmark's transfer with no view: a read-committed
	// Get then an Update, on each of two rows.
	getUpdate := func(db *DB) func() {
		n := int64(0)
		return func() {
			tx, err := db.Begin(txn.ReadCommitted)
			if err != nil {
				t.Fatal(err)
			}
			n++
			for id := int64(1); id <= 2; id++ {
				pk := record.Row{record.Int(id)}
				row, ok, err := tx.Get("accounts", pk)
				if err != nil || !ok {
					t.Fatalf("Get %d: %v %v", id, ok, err)
				}
				bal := row[2].AsInt() + (2*id-3)*n%7
				if err := tx.Update("accounts", pk, map[int]record.Value{2: record.Int(bal)}); err != nil {
					t.Fatal(err)
				}
			}
			mustCommit(t, tx)
		}
	}
	// roGet is the snapshot reader's transaction: a read-only begin, a
	// primary-key Get and Commit.
	roGet := func(db *DB) func() {
		n := int64(0)
		return func() {
			tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			n++
			if _, ok, err := tx.Get("accounts", record.Row{record.Int(n % 64)}); err != nil || !ok {
				t.Fatalf("Get %d: %v %v", n%64, ok, err)
			}
			mustCommit(t, tx)
		}
	}
	for _, c := range []struct {
		name     string
		strategy catalog.Strategy
		op       func(*DB) func()
		budget   float64
	}{
		{"insert/noview", 0, insertCommit, 12},
		{"insert/escrow", catalog.StrategyEscrow, insertCommit, 24},
		{"transfer/escrow", catalog.StrategyEscrow, transfer, 47},
		{"transfer/noview", 0, getUpdate, 25},
		{"ro/get", 0, roGet, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := allocDB(t, c.strategy)
			got := testing.AllocsPerRun(200, c.op(db))
			t.Logf("%s: %.1f allocs per transaction (budget %.0f)", c.name, got, c.budget)
			if got > c.budget {
				t.Fatalf("%s allocates %.1f per transaction, over its budget of %.0f", c.name, got, c.budget)
			}
		})
	}
}

// TestSnapshotViewReadAllocsFlatInChainLength: a snapshot read of an escrow
// group resolves its chain into one summed delta per column and folds it into
// the decoded row it hands to the result, so reading a group behind 200
// stamped deltas allocates as often, and about as much, as reading one behind
// a single delta. An older snapshot stays open so no commit compacts either
// chain.
func TestSnapshotViewReadAllocsFlatInChainLength(t *testing.T) {
	db := allocDB(t, catalog.StrategyEscrow)
	db.PruneVersions()
	held := beginSnapshot(t, db)
	deposit := func(id int64, n int) {
		for i := 1; i <= n; i++ {
			tx := begin(t, db, txn.ReadCommitted)
			if err := tx.Update("accounts", record.Row{record.Int(id)}, map[int]record.Value{2: record.Int(1000 + int64(i))}); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
	}
	// Accounts 1 and 2 sit in branches 1 and 2.
	deposit(1, 1)
	deposit(2, 200)
	if high := db.Metrics().MVCC.ChainLenHighWater; high <= 200 {
		t.Fatalf("chain length high water %d: the held snapshot did not keep 200 versions", high)
	}
	reader := beginSnapshot(t, db)
	read := func(branch, sum int64) func() {
		return func() {
			res, ok, err := reader.GetViewRow("branch_totals", record.Row{record.Int(branch)})
			if err != nil || !ok || res[1].AsInt() != sum {
				t.Fatalf("branch %d reads %v ok=%v err=%v, want sum %d", branch, res, ok, err, sum)
			}
		}
	}
	const runs = 1000
	bytesPer := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	readShort, readLong := read(1, 8*1000+1), read(2, 8*1000+200)
	short, long := testing.AllocsPerRun(runs, readShort), testing.AllocsPerRun(runs, readLong)
	shortB, longB := bytesPer(readShort), bytesPer(readLong)
	t.Logf("GetViewRow behind 1 delta: %.1f allocs, %.0f B; behind 200: %.1f allocs, %.0f B", short, shortB, long, longB)
	if long > short+1 {
		t.Errorf("a read behind 200 deltas allocates %.1f times, behind 1 delta %.1f: want the same, within 1", long, short)
	}
	if longB > 2*shortB {
		t.Errorf("a read behind 200 deltas allocates %.0f B, behind 1 delta %.0f B: want it flat in the chain length", longB, shortB)
	}
	mustCommit(t, reader)
	mustCommit(t, held)
}

// TestCleanGhostsAllocsPerGhost: a cleaner pass over a view of 10 000 live
// groups and one ghost, held by an open transaction's E lock, allocates for
// the ghost, not for the groups.
func TestCleanGhostsAllocsPerGhost(t *testing.T) {
	db := openTestDB(t, Options{ScrubInterval: -1, MVCCPruneInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	const groups = 10000
	rows := make([]record.Row, groups)
	for i := range rows {
		rows[i] = acctRow(int64(i), int64(i), 10)
	}
	insertAccounts(t, db, rows...)
	tx := beginCleanup(t, db)
	if err := tx.Insert("accounts", acctRow(groups, groups, 10)); err != nil {
		t.Fatal(err)
	}
	vtree := db.tree(mustView(t, db, "branch_totals").ID)
	if vtree.Len() != groups || vtree.GhostCount() != 1 {
		t.Fatalf("view holds %d live rows, %d ghosts; want %d and the held one", vtree.Len(), vtree.GhostCount(), groups)
	}
	got := testing.AllocsPerRun(20, func() {
		if n := db.CleanGhosts(); n != 0 {
			t.Fatalf("CleanGhosts erased %d ghosts under a held E lock", n)
		}
	})
	t.Logf("CleanGhosts over %d groups and 1 held ghost: %.0f allocs", groups, got)
	if got > 50 {
		t.Fatalf("CleanGhosts allocates %.0f times for one ghost among %d groups: it must not allocate per group", got, groups)
	}
	mustCommit(t, tx)
}

// TestScrubWantAllocsPerGroup: every view recompute streams a single-source
// aggregate's source, and every compare streams the stored rows, so the
// scrubber's slice, a consistency check and a refresh over 20 000 rows in 8
// groups allocate for the groups, not for the rows.
func TestScrubWantAllocsPerGroup(t *testing.T) {
	db := openTestDB(t, Options{ScrubInterval: -1, MVCCPruneInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	const rows, groups = 20000, 8
	for lo := int64(0); lo < rows; lo += 1000 {
		var batch []record.Row
		for i := lo; i < lo+1000; i++ {
			batch = append(batch, acctRow(i, i%groups, 10))
		}
		insertAccounts(t, db, batch...)
	}
	db.PruneVersions()
	tree := mustView(t, db, "branch_totals").ID
	ts := db.oracle.ReadTS()
	want, n, err := db.recompute(db.Catalog(), db.reg.Maintainer(tree), ts)
	if err != nil || n != rows || len(want) != groups {
		t.Fatalf("recompute = %d entries over %d rows, err %v", len(want), n, err)
	}
	if want[0].Val[0].AsInt() != rows/groups || want[0].Val[3].AsInt() != 10*rows/groups {
		t.Fatalf("group 0 = %v", want[0].Val)
	}
	eng := scrubEngine{db}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"scrubEngine.Verify", func() error {
			if n, diffs, err := eng.Verify(tree, ts, ts, 16); err != nil || n != rows+groups || len(diffs) != 0 {
				return fmt.Errorf("Verify read %d rows, %d diffs, err %v", n, len(diffs), err)
			}
			return nil
		}},
		{"CheckConsistency", db.CheckConsistency},
		{"RefreshView", func() error {
			if n, err := db.RefreshView("branch_totals"); err != nil || n != 0 {
				return fmt.Errorf("RefreshView changed %d rows, err %v", n, err)
			}
			return nil
		}},
	} {
		got := testing.AllocsPerRun(5, func() {
			if err := c.call(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s over %d rows / %d groups: %.0f allocs", c.name, rows, groups, got)
		if got > 200 {
			t.Errorf("%s allocates %.0f times for %d groups over %d rows: it must not allocate per row", c.name, got, groups, rows)
		}
	}
}

// TestSchemaReadAllocs: a published catalog is read-only and its listings are
// computed once, so reading the schema allocates nothing.
func TestSchemaReadAllocs(t *testing.T) {
	db := allocDB(t, catalog.StrategyEscrow)
	if err := db.CreateIndex("by_branch", "accounts", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	cat := db.Catalog()
	if len(cat.ViewsOn("accounts")) != 1 || len(cat.IndexesOn("accounts")) != 1 ||
		len(cat.Views()) != 1 || len(cat.Tables()) != 1 {
		t.Fatalf("catalog not populated: views on accounts %v, indexes %v", cat.ViewsOn("accounts"), cat.IndexesOn("accounts"))
	}
	for _, c := range []struct {
		name string
		read func()
	}{
		{"DB.Catalog", func() { db.Catalog() }},
		{"ViewsOn", func() { cat.ViewsOn("accounts") }},
		{"IndexesOn", func() { cat.IndexesOn("accounts") }},
		{"Views", func() { cat.Views() }},
		{"Tables", func() { cat.Tables() }},
	} {
		if got := testing.AllocsPerRun(100, c.read); got != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", c.name, got)
		}
	}
}
