package vtxn_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/workload"
)

// mvccBanking creates the banking schema with an escrow branch_totals view
// and loads accounts with perAccount balance each, two branches.
func mvccBanking(t *testing.T, accounts int, perAccount int64) *vtxn.DB {
	t.Helper()
	db, err := vtxn.Open(t.TempDir(), vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.CreateTable("accounts", []vtxn.Column{
		{Name: "id", Kind: vtxn.KindInt64},
		{Name: "branch", Kind: vtxn.KindInt64},
		{Name: "balance", Kind: vtxn.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndexedView(vtxn.ViewDef{
		Name:        "branch_totals",
		Kind:        vtxn.ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []vtxn.AggSpec{
			{Func: vtxn.AggCountRows},
			{Func: vtxn.AggSum, Arg: vtxn.Col(2)},
		},
		Strategy: vtxn.StrategyEscrow,
	}); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < accounts; i++ {
		if err := tx.Insert("accounts", vtxn.Row{
			vtxn.Int(int64(i)), vtxn.Int(int64(i % 2)), vtxn.Int(perAccount),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotHammer is the acceptance check for MVCC snapshot reads: four
// escrow writer goroutines tilt disjoint account pairs in sum-preserving
// transactions while four read-only snapshot readers repeatedly ScanView.
// Every scan must observe a transaction-consistent world: COUNT equal to the
// number of accounts and SUM equal to the invariant grand total — a torn
// half-transfer or a leaked uncommitted escrow delta shows up as a sum that
// is off by one. Run under -race in CI (make race), eight goroutines total.
func TestSnapshotHammer(t *testing.T) {
	const writers = 4
	const readers = 4
	const accounts = 2 * writers // each writer owns a disjoint pair
	const perAccount = int64(1000)
	const total = int64(accounts) * perAccount
	scans := 400
	if testing.Short() {
		scans = 120
	}
	db := mvccBanking(t, accounts, perAccount)

	tilt := func(a, b, av, bv int64) error {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			return err
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(a)}, map[int]vtxn.Value{2: vtxn.Int(av)}); err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(b)}, map[int]vtxn.Value{2: vtxn.Int(bv)}); err != nil {
			tx.Rollback()
			return err
		}
		return tx.Commit()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			a, b := 2*w, 2*w+1
			for i := int64(0); !stop.Load(); i++ {
				av, bv := perAccount-1, perAccount+1
				if i%2 == 1 {
					av, bv = perAccount, perAccount
				}
				if err := tilt(a, b, av, bv); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < scans; i++ {
				snap, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
				if err != nil {
					errCh <- err
					return
				}
				rows, err := snap.ScanView("branch_totals")
				if err != nil {
					snap.Rollback()
					errCh <- err
					return
				}
				var count, sum int64
				for _, vr := range rows {
					count += vr.Result[0].AsInt()
					if !vr.Result[1].IsNull() {
						sum += vr.Result[1].AsInt()
					}
				}
				if err := snap.Commit(); err != nil {
					errCh <- err
					return
				}
				if count != accounts || sum != total {
					t.Errorf("torn snapshot: count=%d sum=%d, want %d/%d", count, sum, accounts, total)
					return
				}
			}
		}()
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	s := db.Metrics()
	if s.MVCC.Snapshots < int64(readers*scans) {
		t.Fatalf("snapshots begun = %d, want >= %d", s.MVCC.Snapshots, readers*scans)
	}
	if s.MVCC.VersionsStamped == 0 {
		t.Fatal("no versions stamped under write load")
	}
}

// TestSnapshotPrunerRetires checks the public-API version of the pruning
// rule: chains accumulate while the oldest snapshot pins the horizon and
// drain once it retires.
func TestSnapshotPrunerRetires(t *testing.T) {
	db := mvccBanking(t, 2, 1000)

	// Pin a snapshot, then churn behind it.
	pinned, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx, err := db.Begin(vtxn.ReadCommitted)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update("accounts", vtxn.Row{vtxn.Int(0)},
			map[int]vtxn.Value{2: vtxn.Int(int64(2000 + i))}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.PruneVersions()
	if db.Metrics().MVCC.Chains == 0 {
		t.Fatal("pruner dropped chains pinned by a live snapshot")
	}
	row, ok, err := pinned.Get("accounts", vtxn.Row{vtxn.Int(0)})
	if err != nil || !ok || row[2].AsInt() != 1000 {
		t.Fatalf("pinned snapshot after prune = %v %v %v", row, ok, err)
	}
	if err := pinned.Commit(); err != nil {
		t.Fatal(err)
	}

	// Retired: the chains must drain (the background pruner may need a few
	// passes; drive it directly to stay deterministic).
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().MVCC.Chains > 0 {
		db.PruneVersions()
		if time.Now().After(deadline) {
			t.Fatalf("chains did not drain: %d left", db.Metrics().MVCC.Chains)
		}
	}
	if db.Metrics().MVCC.VersionsPruned == 0 {
		t.Fatal("nothing pruned")
	}
}

// TestSnapshotSeesGroupRecreatedAfterGhostErase is the deterministic
// regression for the erase-then-refold bug (ROADMAP 0a): a group is created,
// emptied, physically erased by the ghost cleaner, and re-created — all
// before any version prunes. Snapshot readers must then see exactly what
// ReadCommitted readers see, at every level of the view DAG. Single
// goroutine; background pruner and scrubber off so the version history stays
// on the chains.
func TestSnapshotSeesGroupRecreatedAfterGhostErase(t *testing.T) {
	ctx := context.Background()
	rollup := func(s vtxn.Strategy) func(*vtxn.DB) error {
		return workload.Rollup{Customers: 10, Regions: 2, Strategy: s}.Setup
	}
	rollupItem := func(item int64) vtxn.Row {
		return workload.Rollup{Regions: 2}.ItemRow(item, 7, 14)
	}
	rollupViews := []string{workload.RollupL0, workload.RollupL1, workload.RollupL2}
	cases := []struct {
		name   string
		setup  func(*vtxn.DB) error
		table  string
		row    func(id int64) vtxn.Row
		views  []string
		ghosts int // rows the cleaner must erase once the only source row is gone
		key    vtxn.Row
		want   []int64 // ReadCommitted GetViewRow(views[len-1], key) at the end
	}{
		{
			name: "flat deferred",
			setup: func(db *vtxn.DB) error {
				if err := db.CreateTable("orders", []vtxn.Column{
					{Name: "id", Kind: vtxn.KindInt64},
					{Name: "customer", Kind: vtxn.KindInt64},
					{Name: "amount", Kind: vtxn.KindInt64},
				}, []int{0}); err != nil {
					return err
				}
				return db.CreateIndexedView(vtxn.ViewDef{
					Name: "customer_totals", Kind: vtxn.ViewAggregate, Source: "orders",
					GroupBy:  []string{"customer"},
					Aggs:     []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("amount")},
					Strategy: vtxn.StrategyDeferred,
				})
			},
			table:  "orders",
			row:    func(id int64) vtxn.Row { return vtxn.Row{vtxn.Int(id), vtxn.Int(7), vtxn.Int(14)} },
			views:  []string{"customer_totals"},
			ghosts: 1,
			key:    vtxn.Row{vtxn.Int(7)},
			want:   []int64{1, 14},
		},
		{
			name: "3-level all-deferred rollup", setup: rollup(vtxn.StrategyDeferred),
			table: "order_items", row: rollupItem, views: rollupViews, ghosts: 3,
			key: vtxn.Row{vtxn.Str("region-01")}, want: []int64{1, 14},
		},
		{
			name: "stacked escrow chain", setup: rollup(vtxn.StrategyEscrow),
			table: "order_items", row: rollupItem, views: rollupViews, ghosts: 3,
			key: vtxn.Row{vtxn.Str("region-01")}, want: []int64{1, 14},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := vtxn.Open(t.TempDir(), vtxn.Options{MVCCPruneInterval: -1, ScrubInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := tc.setup(db); err != nil {
				t.Fatal(err)
			}
			// write runs one single-statement transaction and waits until every
			// level of the chain has folded it.
			write := func(stmt func(tx *vtxn.Tx) error) {
				t.Helper()
				tx, err := db.Begin(vtxn.ReadCommitted)
				if err != nil {
					t.Fatal(err)
				}
				if err := stmt(tx); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, v := range tc.views {
					if err := db.WaitForViewWatermark(ctx, v, tx.CommitTS()); err != nil {
						t.Fatal(err)
					}
				}
			}
			write(func(tx *vtxn.Tx) error { return tx.Insert(tc.table, tc.row(1)) })
			write(func(tx *vtxn.Tx) error { return tx.Delete(tc.table, vtxn.Row{vtxn.Int(1)}) })
			if n := db.CleanGhosts(); n != tc.ghosts {
				t.Fatalf("CleanGhosts erased %d rows, want %d", n, tc.ghosts)
			}
			write(func(tx *vtxn.Tx) error { return tx.Insert(tc.table, tc.row(2)) })

			rc, err := db.Begin(vtxn.ReadCommitted)
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Rollback()
			snap, err := db.Begin(vtxn.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Rollback()
			for _, v := range tc.views {
				want, err := rc.ScanView(v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.ScanView(v)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) != 1 {
					t.Fatalf("%s: ReadCommitted scan = %v, want the one re-created group", v, want)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: Snapshot scan = %v, ReadCommitted scan = %v", v, got, want)
				}
				wantRow, wantOK, err := rc.GetViewRow(v, want[0].Key)
				if err != nil {
					t.Fatal(err)
				}
				gotRow, gotOK, err := snap.GetViewRow(v, want[0].Key)
				if err != nil {
					t.Fatal(err)
				}
				if !wantOK || gotOK != wantOK || fmt.Sprint(gotRow) != fmt.Sprint(wantRow) {
					t.Errorf("%s: Snapshot GetViewRow = %v/%v, ReadCommitted = %v/%v", v, gotRow, gotOK, wantRow, wantOK)
				}
			}
			top := tc.views[len(tc.views)-1]
			row, ok, err := rc.GetViewRow(top, tc.key)
			if err != nil || !ok || len(row) != len(tc.want) {
				t.Fatalf("%s: ReadCommitted GetViewRow(%v) = %v %v %v", top, tc.key, row, ok, err)
			}
			for i, w := range tc.want {
				if row[i].AsInt() != w {
					t.Fatalf("%s: ReadCommitted GetViewRow(%v) = %v, want %v", top, tc.key, row, tc.want)
				}
			}
			if n, err := db.ScrubNow(ctx); err != nil || n != 0 {
				t.Fatalf("ScrubNow = %d divergences, err %v; want a clean pass", n, err)
			}
		})
	}
}
