package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// beginSnapshot starts a read-only snapshot transaction.
func beginSnapshot(t *testing.T, db *DB) *Tx {
	t.Helper()
	tx, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	return tx
}

// viewSum reads branch_totals for a branch inside tx and returns count/sum.
func viewSum(t *testing.T, tx *Tx, branch int64) (count, sum int64, ok bool) {
	t.Helper()
	res, ok, err := tx.GetViewRow("branch_totals", record.Row{record.Int(branch)})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0, 0, false
	}
	if res[1].IsNull() {
		return res[0].AsInt(), 0, true
	}
	return res[0].AsInt(), res[1].AsInt(), true
}

func TestSnapshotReadIsStable(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100), acctRow(2, 7, 50))

	snap := beginSnapshot(t, db)
	if count, sum, ok := viewSum(t, snap, 7); !ok || count != 2 || sum != 150 {
		t.Fatalf("snapshot view = %d/%d/%v", count, sum, ok)
	}
	// A writer commits a deposit after the snapshot began.
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(125)}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)

	// The snapshot still sees the pre-commit world: base row and view row.
	row, ok, err := snap.Get("accounts", record.Row{record.Int(1)})
	if err != nil || !ok || row[2].AsInt() != 100 {
		t.Fatalf("snapshot base row = %v %v %v", row, ok, err)
	}
	if count, sum, ok := viewSum(t, snap, 7); !ok || count != 2 || sum != 150 {
		t.Fatalf("snapshot view after commit = %d/%d/%v", count, sum, ok)
	}
	n := 0
	if err := snap.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("snapshot scan saw %d rows", n)
	}
	mustCommit(t, snap)

	// A fresh snapshot sees the new state.
	snap2 := beginSnapshot(t, db)
	if count, sum, ok := viewSum(t, snap2, 7); !ok || count != 2 || sum != 175 {
		t.Fatalf("fresh snapshot view = %d/%d/%v", count, sum, ok)
	}
	mustCommit(t, snap2)
	checkConsistent(t, db)
}

func TestSnapshotReadDoesNotBlockOnWriterLocks(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// Writer holds an uncommitted X lock on row 1 and an E lock on the view
	// group. A lock-based reader would stall; the snapshot reader must not.
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(999)}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		snap := beginSnapshot(t, db)
		defer snap.Rollback()
		row, ok, err := snap.Get("accounts", record.Row{record.Int(1)})
		if err != nil || !ok || row[2].AsInt() != 100 {
			t.Errorf("snapshot under writer lock = %v %v %v", row, ok, err)
		}
		if count, sum, ok := viewSum(t, snap, 7); !ok || count != 1 || sum != 100 {
			t.Errorf("snapshot view under writer lock = %d/%d/%v", count, sum, ok)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked behind an uncommitted writer")
	}
	mustCommit(t, w)
	checkConsistent(t, db)
}

func TestSnapshotReadOnlyRejectsWrites(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	if _, err := db.BeginTx(context.Background(), TxOptions{Isolation: txn.ReadCommitted, ReadOnly: true}); !errors.Is(err, ErrSnapshotOnly) {
		t.Fatalf("ReadOnly at ReadCommitted err = %v", err)
	}
	snap := beginSnapshot(t, db)
	defer snap.Rollback()
	if err := snap.Insert("accounts", acctRow(2, 7, 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert err = %v", err)
	}
	if err := snap.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(1)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("update err = %v", err)
	}
	if err := snap.Delete("accounts", record.Row{record.Int(1)}); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete err = %v", err)
	}
	// Reads still work after the rejected writes.
	if _, ok, err := snap.Get("accounts", record.Row{record.Int(1)}); !ok || err != nil {
		t.Fatalf("get after rejected write: %v %v", ok, err)
	}
}

func TestSnapshotReadsOwnWrites(t *testing.T) {
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))

	// A non-read-only snapshot transaction writes with locks but reads at its
	// snapshot — except its own writes, which it must see.
	tx, err := db.BeginTx(context.Background(), TxOptions{Isolation: txn.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", acctRow(2, 7, 50)); err != nil {
		t.Fatal(err)
	}
	row, ok, err := tx.Get("accounts", record.Row{record.Int(2)})
	if err != nil || !ok || row[2].AsInt() != 50 {
		t.Fatalf("own insert invisible: %v %v %v", row, ok, err)
	}
	if err := tx.Update("accounts", record.Row{record.Int(2)}, map[int]record.Value{2: record.Int(75)}); err != nil {
		t.Fatal(err)
	}
	row, ok, err = tx.Get("accounts", record.Row{record.Int(2)})
	if err != nil || !ok || row[2].AsInt() != 75 {
		t.Fatalf("own update invisible: %v %v %v", row, ok, err)
	}
	n := 0
	if err := tx.ScanTable("accounts", nil, nil, func(record.Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("own-write scan saw %d rows", n)
	}
	mustCommit(t, tx)
	count, sum, ok := branchTotal(t, db, 7)
	if !ok || count != 2 || sum != 175 {
		t.Fatalf("after commit = %d/%d", count, sum)
	}
	checkConsistent(t, db)
}

func TestPrunerShrinksChainsWhenSnapshotRetires(t *testing.T) {
	// Background pruner disabled: prune points are explicit.
	db := openTestDB(t, Options{MVCCPruneInterval: -1})
	setupBanking(t, db, catalog.StrategyEscrow)
	insertAccounts(t, db, acctRow(1, 7, 100))
	db.waitQuiesced()
	db.PruneVersions() // fold the setup churn away

	snap := beginSnapshot(t, db)
	if count, sum, ok := viewSum(t, snap, 7); !ok || count != 1 || sum != 100 {
		t.Fatalf("pinned snapshot = %d/%d/%v", count, sum, ok)
	}
	// Churn behind the pinned snapshot: each commit stamps versions on the
	// base row and the view group row.
	for i := 0; i < 5; i++ {
		w := begin(t, db, txn.ReadCommitted)
		if err := w.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(int64(200 + i))}); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, w)
	}
	if db.dirty.Len() == 0 {
		t.Fatal("no version chains after churn")
	}
	// Pruning with the snapshot pinned must keep what it still needs...
	db.PruneVersions()
	if db.dirty.Len() == 0 {
		t.Fatal("pruner dropped chains a live snapshot depends on")
	}
	// ...and the pinned reader still resolves its old world.
	if count, sum, ok := viewSum(t, snap, 7); !ok || count != 1 || sum != 100 {
		t.Fatalf("pinned snapshot after prune = %d/%d/%v", count, sum, ok)
	}
	row, ok, err := snap.Get("accounts", record.Row{record.Int(1)})
	if err != nil || !ok || row[2].AsInt() != 100 {
		t.Fatalf("pinned base row after prune = %v %v %v", row, ok, err)
	}
	mustCommit(t, snap)

	// With the oldest snapshot retired the horizon advances and every chain
	// folds down to its base and drops.
	db.waitQuiesced()
	for i := 0; db.dirty.Len() > 0; i++ {
		if db.PruneVersions() == 0 && db.dirty.Len() > 0 {
			t.Fatalf("chains stuck at %d with nothing left to prune", db.dirty.Len())
		}
		if i > 10 {
			t.Fatalf("chains did not drain: %d left", db.dirty.Len())
		}
	}
	s := db.Metrics()
	if s.MVCC.VersionsPruned == 0 || s.MVCC.PrunePasses == 0 {
		t.Fatalf("prune metrics = %+v", s.MVCC)
	}
	if s.MVCC.Chains != 0 {
		t.Fatalf("chains gauge = %d, want 0", s.MVCC.Chains)
	}
	// New readers see the fully-folded state.
	snap2 := beginSnapshot(t, db)
	if count, sum, ok := viewSum(t, snap2, 7); !ok || count != 1 || sum != 204 {
		t.Fatalf("post-prune snapshot = %d/%d/%v", count, sum, ok)
	}
	mustCommit(t, snap2)
	checkConsistent(t, db)
}

func TestSnapshotScanViewConsistentUnderEscrowCommits(t *testing.T) {
	// Concurrency smoke at the core layer: snapshot readers ScanView while
	// escrow writers move one unit between branch 0 and branch 1 in
	// sum-preserving transfers. Every snapshot must see count == accounts and
	// total sum == the initial total — both legs of a transfer or neither.
	// (The root-level -race hammer scales this up; this keeps a fast
	// deterministic check next to the engine.)
	db := openTestDB(t, Options{})
	setupBanking(t, db, catalog.StrategyEscrow)
	const writers = 4
	const accounts = 2 * writers // each writer owns a disjoint pair
	const perAccount = 1000
	var rows []record.Row
	for i := int64(0); i < accounts; i++ {
		rows = append(rows, acctRow(i, i%2, perAccount))
	}
	insertAccounts(t, db, rows...)
	const total = accounts * perAccount

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			// The writer's own accounts: 2w in branch 0, 2w+1 in branch 1.
			a, b := 2*w, 2*w+1
			for i := int64(0); !stop.Load(); i++ {
				// Alternate between the tilted pair and the level pair; every
				// transaction writes both legs, so the pair's sum is always
				// 2*perAccount and the grand total never moves.
				av, bv := int64(perAccount-1), int64(perAccount+1)
				if i%2 == 1 {
					av, bv = perAccount, perAccount
				}
				tx, err := db.Begin(txn.ReadCommitted)
				if err != nil {
					errCh <- err
					return
				}
				err = tx.Update("accounts", record.Row{record.Int(a)}, map[int]record.Value{2: record.Int(av)})
				if err == nil {
					err = tx.Update("accounts", record.Row{record.Int(b)}, map[int]record.Value{2: record.Int(bv)})
				}
				if err != nil {
					tx.Rollback()
					errCh <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	readerErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 200; i++ {
			snap, err := db.BeginTx(context.Background(), TxOptions{ReadOnly: true})
			if err != nil {
				readerErr <- err
				return
			}
			rows, err := snap.ScanView("branch_totals")
			if err != nil {
				snap.Rollback()
				readerErr <- err
				return
			}
			var count, sum int64
			for _, r := range rows {
				count += r.Result[0].AsInt()
				if !r.Result[1].IsNull() {
					sum += r.Result[1].AsInt()
				}
			}
			snap.Commit()
			if count != accounts || sum != total {
				readerErr <- fmt.Errorf("torn snapshot: count=%d sum=%d, want %d/%d", count, sum, accounts, total)
				return
			}
		}
		readerErr <- nil
	}()
	wg.Wait()
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	db.waitQuiesced()
	checkConsistent(t, db)
}

// TestStampCompactsHotChain: with the background pruner off, a commit that
// stamps a chain past maxChainLen folds it down to the prune horizon, so
// 10 000 escrow commits to one group keep the chain bounded. A snapshot held
// open holds the horizon back: the versions above it survive (a snapshot
// begun halfway reads them), the held one still reads its original value,
// and once both retire a prune pass leaves the read paths agreeing.
func TestStampCompactsHotChain(t *testing.T) {
	const commits = 10000
	for _, c := range []struct {
		name string
		hold bool
	}{{"no-snapshot", false}, {"held-snapshot", true}} {
		hold := c.hold
		t.Run(c.name, func(t *testing.T) {
			db := openTestDB(t, Options{MVCCPruneInterval: -1, ScrubInterval: -1})
			setupBanking(t, db, catalog.StrategyEscrow)
			insertAccounts(t, db, acctRow(1, 7, 0))
			db.PruneVersions()
			var held, mid *Tx
			if hold {
				held = beginSnapshot(t, db)
			}
			for i := 1; i <= commits; i++ {
				w := begin(t, db, txn.ReadCommitted)
				if err := w.Update("accounts", record.Row{record.Int(1)}, map[int]record.Value{2: record.Int(int64(i))}); err != nil {
					t.Fatal(err)
				}
				mustCommit(t, w)
				if hold && i == commits/2 {
					mid = beginSnapshot(t, db)
				}
			}
			high := db.Metrics().MVCC.ChainLenHighWater
			if !hold {
				if high > 2*maxChainLen {
					t.Fatalf("chain length reached %d over %d commits, want <= %d", high, commits, 2*maxChainLen)
				}
			} else {
				_, heldSum, heldOK := viewSum(t, held, 7)
				_, midSum, midOK := viewSum(t, mid, 7)
				// Retire the snapshots before failing: Close waits for them.
				mustCommit(t, held)
				mustCommit(t, mid)
				if high <= commits {
					t.Fatalf("chain length reached %d, want every one of %d versions above the held snapshot kept", high, commits)
				}
				if !heldOK || heldSum != 0 {
					t.Fatalf("held snapshot reads sum %d (ok %v), want its original 0", heldSum, heldOK)
				}
				if !midOK || midSum != commits/2 {
					t.Fatalf("halfway snapshot reads sum %d (ok %v), want %d", midSum, midOK, commits/2)
				}
			}
			fresh := beginSnapshot(t, db)
			if _, sum, ok := viewSum(t, fresh, 7); !ok || sum != commits {
				t.Fatalf("fresh snapshot reads sum %d (ok %v), want %d", sum, ok, commits)
			}
			mustCommit(t, fresh)
			db.PruneVersions()
			if err := db.CheckReadPaths(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkConsistent(t, db)
		})
	}
}

// TestSnapshotFoldIsByteExact: an escrow view with an int SUM and a float
// SUM of non-dyadic amounts, folded by two writers whose commits alternate,
// with int sums that wrap around int64. Every snapshot resolve — int deltas
// summed per column, float deltas in chain order — encodes byte for byte as
// a fold of the same commits one delta at a time in commit order, and after
// the chains compact and prune the read paths still agree.
func TestSnapshotFoldIsByteExact(t *testing.T) {
	db := openTestDB(t, Options{MVCCPruneInterval: -1, ScrubInterval: -1})
	err := db.CreateTable("ledger", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "grp", Kind: record.KindInt64},
		{Name: "qty", Kind: record.KindInt64},
		{Name: "amt", Kind: record.KindFloat64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	err = db.CreateIndexedView(catalog.View{
		Name: "totals", Kind: catalog.ViewAggregate, Left: "ledger", GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
			{Func: expr.AggSum, Arg: expr.Col(3)},
		},
		Strategy: catalog.StrategyEscrow,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := mustView(t, db, "totals")
	m := db.reg.Maintainer(v.ID)
	key := record.EncodeKey(record.Row{record.Int(1)})

	// The reference: the group row folded one commit's deltas at a time.
	want := m.NewGroupRow()
	foldRef := func(row record.Row) {
		t.Helper()
		hidden, contribs, err := m.Contributions(row, 1)
		if err != nil {
			t.Fatal(err)
		}
		deltas := []wal.ColDelta{colDelta(hidden)}
		for _, c := range contribs {
			for _, cd := range c.Cells {
				deltas = append(deltas, colDelta(cd))
			}
		}
		for _, d := range deltas {
			if want, err = m.ApplyFold(want, []wal.ColDelta{d}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each qty is near math.MaxInt64, so every fold of the int SUM wraps.
	next := int64(0)
	row := func() record.Row {
		next++
		return record.Row{record.Int(next), record.Int(1), record.Int(math.MaxInt64 - next), record.Float(0.1 * float64(next%7+1))}
	}
	// A seed row gives the chain a base whose float sum is not zero, so a
	// regrouped float sum would round differently from the one-at-a-time
	// fold.
	seed := row()
	seed[3] = record.Float(1000.3)
	w := begin(t, db, txn.ReadCommitted)
	if err := w.Insert("ledger", seed); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, w)
	foldRef(seed)
	db.PruneVersions()
	// The first snapshot holds every later version on the chain.
	type point struct {
		snap *Tx
		want []byte
	}
	points := []point{{beginSnapshot(t, db), nil}}
	const rounds = 40
	for r := 0; r < rounds; r++ {
		a, b := begin(t, db, txn.ReadCommitted), begin(t, db, txn.ReadCommitted)
		ra, rb := row(), row()
		if err := a.Insert("ledger", ra); err != nil {
			t.Fatal(err)
		}
		if err := b.Insert("ledger", rb); err != nil {
			t.Fatal(err)
		}
		// The writers commit in alternating order.
		if r%2 == 1 {
			a, b, ra, rb = b, a, rb, ra
		}
		mustCommit(t, a)
		foldRef(ra)
		mustCommit(t, b)
		foldRef(rb)
		points = append(points, point{beginSnapshot(t, db), record.EncodeRow(want)})
	}
	var bad error
	for i, p := range points[1:] {
		im, ghost, ok, err := db.readRow(v.ID, key, p.snap.readTS, id.None)
		switch {
		case bad != nil:
		case err != nil || !ok || ghost:
			bad = fmt.Errorf("commit pair %d: resolve ok=%v ghost=%v err=%v", i+1, ok, ghost, err)
		case !bytes.Equal(im.encoded(), p.want):
			bad = fmt.Errorf("commit pair %d: snapshot resolve encodes %x, one-at-a-time fold %x", i+1, im.encoded(), p.want)
		}
	}
	// Retire the snapshots before failing: Close waits for open transactions.
	for _, p := range points {
		mustCommit(t, p.snap)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	// Past the horizon, commits compact the chain at stamp; a prune pass
	// folds the rest. The inline image is the same fold.
	for r := 0; r < 2*maxChainLen; r++ {
		w := begin(t, db, txn.ReadCommitted)
		rw := row()
		if err := w.Insert("ledger", rw); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, w)
		foldRef(rw)
	}
	db.waitQuiesced()
	db.PruneVersions()
	if err := db.CheckReadPaths(context.Background()); err != nil {
		t.Fatal(err)
	}
	if val, _, _ := db.tree(v.ID).Get(key); !bytes.Equal(val, record.EncodeRow(want)) {
		t.Fatalf("stored group %x, one-at-a-time fold %x", val, record.EncodeRow(want))
	}
}
