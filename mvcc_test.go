package vtxn_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/workload"
)

// mvccBanking creates the banking schema with a branch_totals view
// maintained by strategy, loads accounts with perAccount balance each over
// two branches, and waits until the view has folded the load.
func mvccBanking(t *testing.T, strategy vtxn.Strategy, accounts int, perAccount int64) *vtxn.DB {
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
		Strategy: strategy,
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
	drainTo(t, db, "branch_totals", tx.CommitTS())
	return db
}

// TestSnapshotHammer is the acceptance check for MVCC snapshot reads, over an
// escrow view and over a deferred one: tilt writers move balance between
// account pairs while four read-only snapshot readers repeatedly ScanView.
// Every scan must observe a transaction-consistent world: COUNT equal to the
// number of accounts and SUM equal to the invariant grand total — a torn
// half-transfer, a leaked uncommitted escrow delta or a half-applied deferred
// round shows up as a sum that is off by one. Under the readers a deferred
// view's watermark only moves forward. At quiesce the view equals its
// recompute, the deferred applier has no lag, the pruner drains every version
// chain once the last snapshot retires, and the metrics record the traffic.
func TestSnapshotHammer(t *testing.T) {
	for _, strategy := range []vtxn.Strategy{vtxn.StrategyEscrow, vtxn.StrategyDeferred} {
		t.Run(strategy.String(), func(t *testing.T) { snapshotHammer(t, strategy) })
	}
}

func snapshotHammer(t *testing.T, strategy vtxn.Strategy) {
	const readers = 4
	const perAccount = int64(1000)
	const total = tiltRows * perAccount
	scans := 400
	if testing.Short() {
		scans = 120
	}
	deferred := strategy == vtxn.StrategyDeferred
	db := mvccBanking(t, strategy, tiltRows, perAccount)

	storm := startTilts(t, db, "accounts", 2, perAccount, 0)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastWM uint64
			for i := 0; i < scans; i++ {
				if deferred {
					wm, err := db.ViewWatermark("branch_totals")
					if err != nil {
						t.Error(err)
						return
					}
					if wm < lastWM {
						t.Errorf("watermark went backwards: %d -> %d", lastWM, wm)
						return
					}
					lastWM = wm
				}
				snap, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
				if err != nil {
					t.Error(err)
					return
				}
				count, sum, err := viewTotals(snap, "branch_totals", 0, 1)
				if err != nil {
					snap.Rollback()
					t.Error(err)
					return
				}
				if err := snap.Commit(); err != nil {
					t.Error(err)
					return
				}
				if count != tiltRows || sum != total {
					t.Errorf("torn snapshot: count=%d sum=%d, want %d/%d", count, sum, tiltRows, total)
					return
				}
			}
		}()
	}
	rwg.Wait()
	storm.halt()
	if t.Failed() {
		t.FailNow()
	}
	// CheckConsistency drains the deferred applier before it verifies.
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Every snapshot has retired and no writer is in flight: the pruner must
	// drain every chain back to its B-tree base.
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().MVCC.Chains > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pruner left %d chains after quiesce", db.Metrics().MVCC.Chains)
		}
		db.PruneVersions()
	}

	s := db.Metrics()
	if s.MVCC.Snapshots < int64(readers*scans) || s.MVCC.ActiveSnapshots != 0 {
		t.Fatalf("snapshots begun %d (want >= %d), active %d after quiesce",
			s.MVCC.Snapshots, readers*scans, s.MVCC.ActiveSnapshots)
	}
	if s.MVCC.VersionsStamped == 0 || s.MVCC.VersionsPruned == 0 ||
		s.MVCC.Watermark == 0 || s.MVCC.ChainLenHighWater == 0 {
		t.Fatalf("mvcc metrics missed the traffic: %+v", s.MVCC)
	}
	if !deferred {
		return
	}
	d := s.Deferred
	if d.LagTS != 0 || d.PendingGroups != 0 || d.StalenessNs != 0 {
		t.Fatalf("applier not drained at quiesce: lag %d, pending %d, staleness %dns",
			d.LagTS, d.PendingGroups, d.StalenessNs)
	}
	if d.PublishedBatches == 0 || d.PublishedGroups == 0 || d.ApplyRounds == 0 ||
		d.GroupsApplied == 0 || d.DeltasIn == 0 || d.Watermark == 0 {
		t.Fatalf("deferred metrics missed the traffic: %+v", d)
	}
	if len(d.Views) != 1 || d.Views[0].View != "branch_totals" {
		t.Fatalf("deferred view listing = %+v", d.Views)
	}
}

// TestRollupChainSnapshotHammer drives tilt writers through the 3-level
// rollup chain, escrow-maintained and fully deferred, against snapshot
// readers that scan all three levels in one transaction. Each tilt moves
// amount between customers in different regions, so it changes every level;
// a torn cascade (a level folded but its dependent not, or levels read at
// different timestamps) breaks cross-level agreement of the grand total or
// the nesting of row counts. At quiesce every level equals its recompute, a
// cascading refresh of the root changes nothing, and the cascade metrics show
// coalesced contributions and folds at the stacked levels.
func TestRollupChainSnapshotHammer(t *testing.T) {
	const readers = 4
	scans := 150
	if testing.Short() {
		scans = 50
	}
	for _, strategy := range []vtxn.Strategy{vtxn.StrategyEscrow, vtxn.StrategyDeferred} {
		t.Run(strategy.String(), func(t *testing.T) {
			db := openDB(t)
			setupItemChain(t, db, strategy)
			storm := startTilts(t, db, "order_items", amountCol, itemLevel, 0)
			var rwg sync.WaitGroup
			for r := 0; r < readers; r++ {
				rwg.Add(1)
				go func() {
					defer rwg.Done()
					for i := 0; i < scans; i++ {
						if err := checkChain(db); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			rwg.Wait()
			storm.halt()
			if t.Failed() {
				t.FailNow()
			}

			if err := db.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if n, err := db.RefreshView(workload.RollupL0); err != nil || n != 0 {
				t.Fatalf("cascading refresh of a consistent chain changed %d rows, err %v", n, err)
			}
			c := db.Metrics().Cascade
			if c.Enqueued == 0 || c.Coalesced == 0 {
				t.Fatalf("cascade flow: enqueued %d, coalesced %d", c.Enqueued, c.Coalesced)
			}
			if c.Folds == 0 || len(c.LevelFolds) < 3 || c.LevelFolds[1] == 0 || c.LevelFolds[2] == 0 {
				t.Fatalf("stacked levels never folded: folds %d, by level %v", c.Folds, c.LevelFolds)
			}
		})
	}
}

// checkChain reads the three rollup levels in one snapshot and checks they
// agree: the same grand total at every level, one order per item, one
// customer per order, and every region present.
func checkChain(db *vtxn.DB) error {
	snap, err := db.BeginTx(context.Background(), vtxn.TxOptions{ReadOnly: true})
	if err != nil {
		return err
	}
	defer snap.Commit()
	l0, err := snap.ScanView(workload.RollupL0)
	if err != nil {
		return err
	}
	var sum0 int64
	for _, r := range l0 {
		sum0 += r.Result[0].AsInt()
	}
	orders, sum1, err := viewTotals(snap, workload.RollupL1, 0, 1)
	if err != nil {
		return err
	}
	customers, sum2, err := viewTotals(snap, workload.RollupL2, 0, 1)
	if err != nil {
		return err
	}
	l2, err := snap.ScanView(workload.RollupL2)
	if err != nil {
		return err
	}
	const grand = tiltRows * itemLevel
	if sum0 != grand || sum1 != grand || sum2 != grand {
		return fmt.Errorf("torn cascade: totals L0=%d L1=%d L2=%d, want %d", sum0, sum1, sum2, grand)
	}
	if len(l0) != tiltRows || orders != tiltRows || customers != tiltRows || len(l2) != itemRegions {
		return fmt.Errorf("levels do not nest: |L0|=%d orders=%d customers=%d |L2|=%d, want %d/%d/%d/%d",
			len(l0), orders, customers, len(l2), tiltRows, tiltRows, tiltRows, itemRegions)
	}
	return nil
}

// TestSnapshotPrunerRetires checks the public-API version of the pruning
// rule: chains accumulate while the oldest snapshot pins the horizon and
// drain once it retires.
func TestSnapshotPrunerRetires(t *testing.T) {
	db := mvccBanking(t, vtxn.StrategyEscrow, 2, 1000)

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
