package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/txn"
)

// waitLockWaits returns once db has counted n blocked lock requests. A
// request is counted once it is queued, so the caller's next conflicting
// request queues behind it.
func waitLockWaits(t *testing.T, db *DB, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Lock.Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lock requests blocked", db.Metrics().Lock.Waits, n)
		}
		runtime.Gosched()
	}
}

// waitSettled returns once each of n concurrent requests has either finished,
// by a send on done, or blocked, by a count in Lock.Waits above waits, and
// returns the results of those that finished. A blocked request stays
// blocked until the caller releases what it waits for, so none counts twice.
func waitSettled(t *testing.T, db *DB, done <-chan error, n int, waits int64) []error {
	t.Helper()
	var finished []error
	deadline := time.Now().Add(5 * time.Second)
	for int64(len(finished))+db.Metrics().Lock.Waits-waits < int64(n) {
		select {
		case err := <-done:
			finished = append(finished, err)
			continue
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("of %d requests %d finished and %d blocked", n, len(finished), db.Metrics().Lock.Waits-waits)
		}
		runtime.Gosched()
	}
	return finished
}

// TestConcurrentEscrowWriters is the headline behavior: many writers
// updating the same aggregate group commit concurrently and the final SUM is
// exact.
func TestConcurrentEscrowWriters(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 0))

	const writers = 16
	const perWriter = 50
	var nextID atomic.Int64
	nextID.Store(100)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					errs <- err
					return
				}
				id := nextID.Add(1)
				if err := tx.Insert("accounts", acctRow(id, 7, 10)); err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	count, sum, ok := branchTotal(t, db, 7)
	want := int64(writers*perWriter + 1)
	if !ok || count != want || sum != int64(writers*perWriter*10) {
		t.Fatalf("branch 7 = %d/%d, want %d/%d", count, sum, want, writers*perWriter*10)
	}
	checkConsistent(t, db)
}

// TestConcurrentMixedCommitAbort interleaves committing and aborting
// writers; only committed work may appear.
func TestConcurrentMixedCommitAbort(t *testing.T) {
	db := openTestDB(t, Options{GhostCleanInterval: 5 * time.Millisecond})
	setupBanking(t, db, catalog.StrategyEscrow)

	const writers = 12
	const perWriter = 40
	var committedSum atomic.Int64
	var committedCount atomic.Int64
	var nextID atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					t.Error(err)
					return
				}
				id := nextID.Add(1)
				amount := int64(rng.Intn(100))
				branch := int64(rng.Intn(3))
				if err := tx.Insert("accounts", acctRow(id, branch, amount)); err != nil {
					tx.Rollback()
					continue
				}
				if rng.Intn(3) == 0 {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					committedSum.Add(amount)
					committedCount.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	var total, count int64
	for b := int64(0); b < 3; b++ {
		c, s, ok := branchTotal(t, db, b)
		if ok {
			count += c
			total += s
		}
	}
	if count != committedCount.Load() || total != committedSum.Load() {
		t.Fatalf("view says %d/%d, committed %d/%d", count, total, committedCount.Load(), committedSum.Load())
	}
	checkConsistent(t, db)
}

// TestReadCommittedReaderDoesNotBlockOnEscrow shows the paper's reader
// semantics: an RC reader of an escrow view returns immediately while a
// writer holds E locks, and sees only committed values.
func TestReadCommittedReaderDoesNotBlockOnEscrow(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// Writer holds an E lock on branch 7's view row (uncommitted).
	writer := begin(t, db, txn.ReadCommitted)
	if err := writer.Insert("accounts", acctRow(2, 7, 900)); err != nil {
		t.Fatal(err)
	}

	waits := db.Metrics().Lock.Waits
	done := make(chan struct{})
	go func() {
		defer close(done)
		count, sum, ok := branchTotal(t, db, 7)
		if !ok || count != 1 || sum != 100 {
			t.Errorf("RC reader saw %d/%d, want committed 1/100", count, sum)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RC reader blocked on escrow writer")
	}
	if got := db.Metrics().Lock.Waits - waits; got != 0 {
		t.Fatalf("RC reader of an escrow view waited on %d lock requests", got)
	}
	mustCommit(t, writer)
	count, sum, _ := branchTotal(t, db, 7)
	if count != 2 || sum != 1000 {
		t.Fatalf("after commit = %d/%d", count, sum)
	}
}

// TestSerializableReaderBlocksOnEscrow shows the other side of the
// trade-off: a serializable reader's S lock conflicts with E and waits.
func TestSerializableReaderBlocksOnEscrow(t *testing.T) {
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
		reader := begin(t, db, txn.Serializable)
		defer reader.Rollback()
		res, ok, err := reader.GetViewRow("branch_totals", record.Row{record.Int(7)})
		if err != nil || !ok {
			t.Errorf("serializable read: %v %v", ok, err)
			got <- -1
			return
		}
		got <- res[1].AsInt()
	}()
	waitLockWaits(t, db, waits+1)
	select {
	case v := <-got:
		t.Fatalf("serializable reader did not block (saw %d)", v)
	default:
	}
	mustCommit(t, writer)
	select {
	case v := <-got:
		if v != 1000 {
			t.Fatalf("serializable reader saw %d, want 1000", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("serializable reader stuck after writer commit")
	}
}

// TestXLockWritersSerialize shows the baseline's behavior: two writers to
// the same group cannot proceed concurrently.
func TestXLockWritersSerialize(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyXLock)
	insertAccounts(t, db, acctRow(1, 7, 100))

	t1 := begin(t, db, txn.ReadCommitted)
	if err := t1.Insert("accounts", acctRow(2, 7, 10)); err != nil {
		t.Fatal(err)
	}
	waits := db.Metrics().Lock.Waits
	done := make(chan error, 1)
	go func() {
		t2, err := db.Begin(txn.ReadCommitted)
		if err != nil {
			done <- err
			return
		}
		if err := t2.Insert("accounts", acctRow(3, 7, 20)); err != nil {
			t2.Rollback()
			done <- err
			return
		}
		done <- t2.Commit()
	}()
	waitLockWaits(t, db, waits+1)
	select {
	case err := <-done:
		t.Fatalf("second xlock writer did not block: %v", err)
	default:
	}
	mustCommit(t, t1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	count, sum, _ := branchTotal(t, db, 7)
	if count != 3 || sum != 130 {
		t.Fatalf("final = %d/%d", count, sum)
	}
	checkConsistent(t, db)
}

// TestHotGroupWriters is the paper's headline claim as a count (F2, F3):
// writers that each hold a transaction open on one aggregate group never
// wait for one another under E locks, while X locks queue every writer
// behind the first. On distinct groups X-lock writers do not wait either:
// the contention follows the sharing, not the strategy.
func TestHotGroupWriters(t *testing.T) {
	const writers = 8
	for _, c := range []struct {
		name     string
		strategy catalog.Strategy
		groups   int64 // writer w writes group w % groups
		waits    int64 // blocked lock requests once every writer has written
	}{
		{"escrow/one-group", catalog.StrategyEscrow, 1, 0},
		{"xlock/one-group", catalog.StrategyXLock, 1, writers - 1},
		{"xlock/distinct-groups", catalog.StrategyXLock, writers, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := openTestDB(t, Options{})
			setupBanking(t, db, c.strategy)
			// Writer w updates its own account w, in group w % groups: the
			// only resources the writers share are the groups' view rows.
			var rows []record.Row
			for w := int64(0); w < writers; w++ {
				rows = append(rows, acctRow(w, w%c.groups, 100))
			}
			insertAccounts(t, db, rows...)

			lk := db.Metrics().Lock
			written := make(chan error, writers)
			committed := make(chan error, writers)
			release := make(chan struct{})
			var once sync.Once
			releaseAll := func() { once.Do(func() { close(release) }) }
			defer releaseAll() // a failed assertion must not strand the writers
			for w := int64(0); w < writers; w++ {
				go func() {
					tx, err := db.Begin(txn.ReadCommitted)
					if err != nil {
						written <- err
						committed <- err
						return
					}
					err = tx.Update("accounts", record.Row{record.Int(w)}, map[int]record.Value{2: record.Int(110)})
					written <- err
					if err != nil {
						tx.Rollback()
						committed <- err
						return
					}
					<-release
					committed <- tx.Commit()
				}()
			}
			for _, err := range waitSettled(t, db, written, writers, lk.Waits) {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := db.Metrics().Lock.Waits - lk.Waits; got != c.waits {
				t.Fatalf("%d writers on %d groups blocked %d lock requests, want %d", writers, c.groups, got, c.waits)
			}
			releaseAll()
			for range writers {
				if err := <-committed; err != nil {
					t.Fatal(err)
				}
			}
			if got := db.Metrics().Lock.Deadlocks - lk.Deadlocks; got != 0 {
				t.Fatalf("%d deadlocks", got)
			}
			per := writers / c.groups
			for g := int64(0); g < c.groups; g++ {
				if count, sum, _ := branchTotal(t, db, g); count != per || sum != 110*per {
					t.Fatalf("group %d = %d/%d, want %d/%d", g, count, sum, per, 110*per)
				}
			}
			checkConsistent(t, db)
		})
	}
}

// TestOppositeOrderTransfers is F4: two transfers touch two branches' view
// rows in opposite orders. E locks never conflict with one another, so both
// commit without a wait or a deadlock; under X locks the second crossing
// request closes a cycle and the younger transaction is its victim.
func TestOppositeOrderTransfers(t *testing.T) {
	for _, c := range []struct {
		strategy  catalog.Strategy
		deadlocks int64
	}{
		{catalog.StrategyEscrow, 0},
		{catalog.StrategyXLock, 1},
	} {
		t.Run(c.strategy.String(), func(t *testing.T) {
			db := openTestDB(t, Options{})
			setupBanking(t, db, c.strategy)
			// Accounts 1 and 4 sit in branch 1, accounts 2 and 3 in branch 2.
			// The transfers touch distinct accounts, so only view rows can
			// conflict.
			insertAccounts(t, db, acctRow(1, 1, 100), acctRow(2, 2, 100), acctRow(3, 2, 100), acctRow(4, 1, 100))
			set := func(tx *Tx, id, balance int64) error {
				return tx.Update("accounts", record.Row{record.Int(id)}, map[int]record.Value{2: record.Int(balance)})
			}
			lk := db.Metrics().Lock
			// t1 moves 10 from account 1 to account 2 (branch 1, then 2); t2
			// moves 10 from account 3 to account 4 (branch 2, then 1).
			t1 := beginCleanup(t, db)
			t2 := beginCleanup(t, db)
			if err := set(t1, 1, 90); err != nil {
				t.Fatal(err)
			}
			if err := set(t2, 3, 90); err != nil {
				t.Fatal(err)
			}
			r1 := make(chan error, 1)
			go func() { r1 <- set(t1, 2, 110) }()
			finished := waitSettled(t, db, r1, 1, lk.Waits)
			err2 := set(t2, 4, 110)
			t2Commits := err2 == nil
			switch {
			case t2Commits:
				mustCommit(t, t2)
			case errors.Is(err2, ErrDeadlock):
				if err := t2.Rollback(); err != nil {
					t.Fatal(err)
				}
			default:
				t.Fatal(err2)
			}
			if len(finished) == 0 {
				finished = append(finished, <-r1)
			}
			if finished[0] != nil {
				t.Fatal(finished[0])
			}
			mustCommit(t, t1)

			m := db.Metrics().Lock
			if got := m.Deadlocks - lk.Deadlocks; got != c.deadlocks {
				t.Fatalf("%d deadlocks, want %d", got, c.deadlocks)
			}
			if c.deadlocks == 0 && (m.Waits != lk.Waits || !t2Commits) {
				t.Fatalf("E-locked transfers blocked %d requests; second transfer: %v", m.Waits-lk.Waits, err2)
			}
			want1, want2 := int64(190), int64(210) // t1 alone moved 10
			if t2Commits {
				want1, want2 = 200, 200
			}
			if _, sum, _ := branchTotal(t, db, 1); sum != want1 {
				t.Fatalf("branch 1 = %d, want %d", sum, want1)
			}
			if _, sum, _ := branchTotal(t, db, 2); sum != want2 {
				t.Fatalf("branch 2 = %d, want %d", sum, want2)
			}
			checkConsistent(t, db)
		})
	}
}

// TestDeadlockVictimRecovers drives two transactions into a deadlock and
// verifies the victim can roll back and the survivor commits.
func TestDeadlockVictimRecovers(t *testing.T) {
	db := openTestDB(t, Options{LockTimeout: 2 * time.Second})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 1, 10), acctRow(2, 2, 20))

	t1 := begin(t, db, txn.ReadCommitted)
	t2 := begin(t, db, txn.ReadCommitted)
	if err := t1.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(11)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Update("accounts", record.Row{record.Int(2)}, map[int]record.Value{2: record.Int(21)}); err != nil {
		t.Fatal(err)
	}
	r1 := make(chan error, 1)
	waits := db.Metrics().Lock.Waits
	go func() {
		r1 <- t1.Update("accounts", record.Row{record.Int(2)}, map[int]record.Value{2: record.Int(12)})
	}()
	waitLockWaits(t, db, waits+1)
	err2 := t2.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(22)})
	if err2 == nil {
		t.Fatal("expected deadlock for t2")
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-r1; err != nil {
		t.Fatal(err)
	}
	mustCommit(t, t1)
	row, _, _ := func() (record.Row, bool, error) {
		tx := begin(t, db, txn.ReadCommitted)
		defer tx.Rollback()
		return tx.Get("accounts", record.Row{record.Int(2)})
	}()
	if row[2].AsInt() != 12 {
		t.Fatalf("row 2 balance = %d, want 12 (t1's write)", row[2].AsInt())
	}
	checkConsistent(t, db)
}

// TestRandomWorkloadStress runs a mixed random workload across strategies
// and isolation levels, then checks the global invariant.
func TestRandomWorkloadStress(t *testing.T) {
	db := openTestDB(t, Options{GhostCleanInterval: 10 * time.Millisecond, LockTimeout: 5 * time.Second})
	setupBanking(t, db, catalog.StrategyEscrow)
	// A second, X-lock view over the same table stresses both paths at once.
	if err := db.CreateIndexedView(catalog.View{
		Name: "branch_totals_x", Kind: catalog.ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
		Strategy: catalog.StrategyXLock,
	}); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const steps = 120
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			levels := []txn.Level{txn.ReadCommitted, txn.RepeatableRead, txn.Serializable}
			for i := 0; i < steps; i++ {
				tx, err := db.Begin(levels[rng.Intn(3)])
				if err != nil {
					t.Error(err)
					return
				}
				failed := false
				for op := 0; op < 1+rng.Intn(3) && !failed; op++ {
					id := int64(g*1000 + rng.Intn(60))
					branch := int64(rng.Intn(4))
					switch rng.Intn(4) {
					case 0:
						failed = tx.Insert("accounts", acctRow(id, branch, int64(rng.Intn(50)))) != nil
					case 1:
						failed = tx.Delete("accounts", record.Row{record.Int(id)}) != nil
					case 2:
						failed = tx.Update("accounts", record.Row{record.Int(id)},
							map[int]record.Value{2: record.Int(int64(rng.Intn(50)))}) != nil
					default:
						_, _, err := tx.GetViewRow("branch_totals", record.Row{record.Int(branch)})
						failed = err != nil
					}
				}
				if failed || rng.Intn(5) == 0 {
					tx.Rollback()
				} else if err := tx.Commit(); err != nil {
					// Commit can fail only via injected faults, which this
					// test does not use.
					t.Errorf("commit: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	checkConsistent(t, db)
	m := db.Metrics()
	if m.Engine.Commits == 0 {
		t.Fatal("no commits happened")
	}
	t.Logf("engine: %+v", m.Engine)
}
