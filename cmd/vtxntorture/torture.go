package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// currentDB is the most recently opened engine instance (torture or verify
// phase), for the SIGQUIT dump handler and the failure artifacts writer. The
// flight recorder stays readable after Crash/Close — the history that led to
// the failure is exactly what the artifacts capture.
var currentDB atomic.Pointer[core.DB]

// trackDB records db as the episode's current instance.
func trackDB(db *core.DB) *core.DB {
	currentDB.Store(db)
	return db
}

// writeArtifacts dumps the failed episode's flight record (timeline + JSONL)
// and replay instructions under dir/seed-N, so a red CI torture run is
// diagnosable from the uploaded artifacts alone. Returns the artifact dir.
func writeArtifacts(dir string, res result) (string, error) {
	sub := filepath.Join(dir, fmt.Sprintf("seed-%d", res.seed))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	repro := fmt.Sprintf("seed: %d\nschedule: %s\nerror: %v\nreproduce: go run ./cmd/vtxntorture -seed %d -v\n",
		res.seed, res.schedule, res.err, res.seed)
	if err := os.WriteFile(filepath.Join(sub, "repro.txt"), []byte(repro), 0o644); err != nil {
		return "", err
	}
	if db := currentDB.Load(); db != nil {
		if f, err := os.Create(filepath.Join(sub, "flightrec.txt")); err == nil {
			db.DumpFlightRecord(f)
			f.Close()
		}
		if f, err := os.Create(filepath.Join(sub, "flightrec.jsonl")); err == nil {
			db.WriteFlightRecordJSONL(f)
			f.Close()
		}
	}
	return sub, nil
}

// result summarizes one torture episode.
type result struct {
	seed     int64
	schedule string // the injector's fault schedule, rendered
	crashed  bool   // the scheduled fault fired
	cause    string // what fired ("" for a clean shutdown)
	opsDone  int    // workload ops completed before the crash/shutdown
	err      error  // nil unless the episode found a bug
}

// episode is one seeded crash-recovery run: open a database on a
// fault-injecting filesystem, run a seeded single-client workload until the
// scheduled fault fires (or the op budget runs out), abandon the instance the
// way a dying process would, then reopen on the real filesystem and verify
// that recovery restored the paper's view-consistency invariant.
type episode struct {
	seed int64
	ops  int
	logf func(format string, a ...any)

	inj *fault.Injector
	dir string

	shape    string // "banking" or "orders"
	strategy catalog.Strategy
	syncMode wal.SyncMode
	flush    bool // flush buffered log records at the planned shutdown

	accounts  int
	branches  int
	products  int
	joinView  bool
	customers int
	regions   int

	nextOrder int64
	nextItem  int64
	opsDone   int
}

// runSeed executes one episode. Everything the episode does — the workload
// shape, every row it touches, and the fault schedule — derives from seed, so
// a failure reproduces exactly under the same seed.
func runSeed(seed int64, ops int, logf func(format string, a ...any)) (res result) {
	res.seed = seed
	e := &episode{seed: seed, ops: ops, logf: logf}
	dir, err := os.MkdirTemp("", fmt.Sprintf("vtxntorture-%d-", seed))
	if err != nil {
		res.err = err
		return res
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	e.inj = fault.NewInjector(seed)
	res.schedule = e.inj.Describe()

	if err := e.torture(); err != nil {
		res.err = err
		return res
	}
	res.crashed = e.inj.Crashed()
	res.cause = e.inj.Cause()
	res.opsDone = e.opsDone
	if res.crashed {
		e.logf("seed %d: crashed after %d ops: %s", seed, e.opsDone, res.cause)
	} else {
		e.logf("seed %d: ran %d ops to planned shutdown (flush=%v)", seed, e.opsDone, e.flush)
	}
	res.err = e.verify()
	return res
}

// plan derives the episode's workload shape from the seed. Every field is
// consumed unconditionally so the rng stream stays aligned across shapes.
func (e *episode) plan(rng *rand.Rand) {
	e.shape = "banking"
	switch r := rng.Intn(10); {
	case r >= 8:
		e.shape = "rollup"
	case r >= 5:
		e.shape = "orders"
	}
	e.strategy = catalog.StrategyEscrow
	if rng.Intn(10) >= 7 {
		e.strategy = catalog.StrategyXLock
	}
	deferredChain := rng.Intn(3) == 0
	if e.shape == "rollup" {
		// A stacked level cannot use X locks; the chain is either all-escrow
		// or all-deferred (exercising the applier's component cascade under
		// crash recovery).
		e.strategy = catalog.StrategyEscrow
		if deferredChain {
			e.strategy = catalog.StrategyDeferred
		}
	}
	e.syncMode = wal.SyncNone
	if rng.Intn(2) == 0 {
		e.syncMode = wal.SyncData
	}
	e.flush = rng.Intn(2) == 0
	e.accounts = 20 + rng.Intn(60)
	e.branches = 2 + rng.Intn(6)
	e.products = 3 + rng.Intn(8)
	e.joinView = rng.Intn(2) == 0
	e.customers = 5 + rng.Intn(15)
	e.regions = 2 + rng.Intn(4)
}

// torture runs the fault-injected half of the episode. A fired fault is the
// expected outcome, not an error; only misbehavior with the injector still
// alive fails the episode.
func (e *episode) torture() error {
	rng := rand.New(rand.NewSource(e.seed))
	e.plan(rng)
	e.logf("seed %d: shape=%s strategy=%v sync=%d schedule=%q",
		e.seed, e.shape, e.strategy, e.syncMode, e.inj.Describe())
	// Abandon the instance like a process exit: whatever the injector still
	// has open gets closed, flushed or not.
	defer e.inj.CloseAll()
	db, err := core.Open(e.dir, core.Options{
		SyncMode: e.syncMode,
		FS:       e.inj,
		Hooks:    e.inj,
		Tracer:   slowTracer,
		Watchdog: true,
		// The online scrubber runs live through every episode: its snapshot
		// reads race the workload and the injected faults, and any divergence
		// it confirms on a still-healthy engine fails the seed below.
		ScrubInterval: time.Millisecond,
	})
	if err != nil {
		if e.inj.Crashed() {
			return nil
		}
		return fmt.Errorf("open: %w", err)
	}
	trackDB(db)
	if err := e.setup(db); err != nil && !e.inj.Crashed() {
		db.Crash(false)
		return fmt.Errorf("setup: %w", err)
	}
	for e.opsDone = 0; e.opsDone < e.ops && !e.inj.Crashed(); e.opsDone++ {
		if err := e.step(db, rng); err != nil && !e.inj.Crashed() {
			db.Crash(false)
			return fmt.Errorf("op %d: %w", e.opsDone, err)
		}
	}
	if !e.inj.Crashed() {
		if d := db.Metrics().Scrub.Divergences; d > 0 {
			db.Crash(false)
			return fmt.Errorf("online scrubber confirmed %d view-row divergences during the episode", d)
		}
		// The workload is single-threaded, so this is a quiesce point with the
		// episode's whole version history still on the chains.
		if err := db.CheckReadPaths(context.Background()); err != nil && !e.inj.Crashed() {
			db.Crash(false)
			return err
		}
	}
	db.Crash(e.flush)
	return nil
}

func (e *episode) setup(db *core.DB) error {
	if e.shape == "banking" {
		w := workload.Banking{
			Accounts:       e.accounts,
			Branches:       e.branches,
			Strategy:       e.strategy,
			InitialBalance: 100,
		}
		return w.Setup(db)
	}
	if e.shape == "rollup" {
		w := e.rollup()
		if err := w.Setup(db); err != nil {
			return err
		}
		if err := w.LoadItems(db, 30, e.seed); err != nil {
			return err
		}
		e.nextItem = 30
		return nil
	}
	w := workload.Orders{
		Products:     e.products,
		Skew:         1.5,
		Strategy:     e.strategy,
		WithJoinView: e.joinView,
	}
	if err := w.Setup(db); err != nil {
		return err
	}
	if err := w.LoadOrders(db, 40, e.seed); err != nil {
		return err
	}
	e.nextOrder = 40
	return nil
}

// step performs one workload action: usually a 1–3 statement transaction,
// occasionally a checkpoint or a ghost-cleaning pass.
func (e *episode) step(db *core.DB, rng *rand.Rand) error {
	switch r := rng.Intn(200); {
	case r < 1:
		return db.Checkpoint()
	case r < 6:
		db.CleanGhosts()
		return nil
	}
	switch e.shape {
	case "banking":
		return e.bankingTxn(db, rng)
	case "rollup":
		return e.rollupTxn(db, rng)
	}
	return e.ordersTxn(db, rng)
}

// rollup builds the episode's stacked-chain workload definition.
func (e *episode) rollup() workload.Rollup {
	return workload.Rollup{
		Customers: e.customers,
		Regions:   e.regions,
		Skew:      1.3,
		Strategy:  e.strategy,
	}
}

// rollupTxn mutates 1–3 order items under the 3-level chain: inserts mostly,
// with amendments and deletes (deletes empty whole order groups, ghosting
// rows up the cascade), and a 1-in-6 chance of rolling back.
func (e *episode) rollupTxn(db *core.DB, rng *rand.Rand) error {
	w := e.rollup()
	tx, err := db.BeginTx(context.Background(), core.TxOptions{Isolation: txn.ReadCommitted})
	if err != nil {
		return err
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		var err error
		switch c := rng.Intn(10); {
		case c < 6: // new item
			item := e.nextItem
			e.nextItem++
			pk := record.Row{record.Int(item)}
			_, ok, gerr := tx.Get("order_items", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if ok {
				continue
			}
			err = tx.Insert("order_items",
				w.ItemRow(item, int64(rng.Intn(e.customers)), int64(10+rng.Intn(90))))
		case c < 8: // return an item
			if e.nextItem == 0 {
				continue
			}
			pk := record.Row{record.Int(rng.Int63n(e.nextItem))}
			_, ok, gerr := tx.Get("order_items", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if !ok {
				continue
			}
			err = tx.Delete("order_items", pk)
		default: // amend the amount
			if e.nextItem == 0 {
				continue
			}
			pk := record.Row{record.Int(rng.Int63n(e.nextItem))}
			row, ok, gerr := tx.Get("order_items", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if !ok {
				continue
			}
			err = tx.Update("order_items", pk, map[int]record.Value{
				4: record.Int(row[4].AsInt()%90 + 10),
			})
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	if rng.Intn(6) == 0 {
		return tx.Rollback()
	}
	return tx.Commit()
}

// bankingTxn mutates 1–3 accounts: updates mostly, with inserts and deletes
// (the deletes churn view ghosts), and a 1-in-6 chance of rolling back.
func (e *episode) bankingTxn(db *core.DB, rng *rand.Rand) error {
	tx, err := db.BeginTx(context.Background(), core.TxOptions{Isolation: txn.ReadCommitted})
	if err != nil {
		return err
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		id := int64(rng.Intn(e.accounts * 2)) // upper half mostly absent → inserts
		pk := record.Row{record.Int(id)}
		row, ok, err := tx.Get("accounts", pk)
		if err != nil {
			tx.Rollback()
			return err
		}
		switch {
		case !ok:
			err = tx.Insert("accounts", record.Row{
				record.Int(id),
				record.Int(id % int64(e.branches)),
				record.Int(int64(50 + rng.Intn(200))),
			})
		case rng.Intn(10) < 7:
			err = tx.Update("accounts", pk, map[int]record.Value{
				2: record.Int(row[2].AsInt() + int64(rng.Intn(41)-20)),
			})
		default:
			err = tx.Delete("accounts", pk)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	if rng.Intn(6) == 0 {
		return tx.Rollback()
	}
	return tx.Commit()
}

// ordersTxn enters, cancels, and amends orders. Inserts probe the primary key
// first so replays over recovered state never hit duplicate-key errors.
func (e *episode) ordersTxn(db *core.DB, rng *rand.Rand) error {
	tx, err := db.BeginTx(context.Background(), core.TxOptions{Isolation: txn.ReadCommitted})
	if err != nil {
		return err
	}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		var err error
		switch c := rng.Intn(10); {
		case c < 6: // new order
			id := e.nextOrder
			e.nextOrder++
			pk := record.Row{record.Int(id)}
			_, ok, gerr := tx.Get("orders", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if ok {
				continue
			}
			err = tx.Insert("orders", record.Row{
				record.Int(id),
				record.Int(int64(rng.Intn(e.products))),
				record.Int(int64(1 + rng.Intn(5))),
			})
		case c < 8: // cancel an order
			if e.nextOrder == 0 {
				continue
			}
			pk := record.Row{record.Int(rng.Int63n(e.nextOrder))}
			_, ok, gerr := tx.Get("orders", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if !ok {
				continue
			}
			err = tx.Delete("orders", pk)
		default: // amend quantity
			if e.nextOrder == 0 {
				continue
			}
			pk := record.Row{record.Int(rng.Int63n(e.nextOrder))}
			row, ok, gerr := tx.Get("orders", pk)
			if gerr != nil {
				tx.Rollback()
				return gerr
			}
			if !ok {
				continue
			}
			err = tx.Update("orders", pk, map[int]record.Value{
				2: record.Int(row[2].AsInt()%5 + 1),
			})
		}
		if err != nil {
			tx.Rollback()
			return err
		}
	}
	if rng.Intn(6) == 0 {
		return tx.Rollback()
	}
	return tx.Commit()
}

// verify reopens the abandoned directory on the real filesystem and asserts
// the recovery contract: the log's surviving prefix is well-formed, restart
// restores views == recompute-from-base, the recovered database accepts new
// work, and a second restart over the grown log agrees.
func (e *episode) verify() error {
	if err := e.checkWAL(false); err != nil {
		return fmt.Errorf("pre-recovery %w", err)
	}
	db, err := core.Open(e.dir, core.Options{SyncMode: e.syncMode, Tracer: slowTracer, Watchdog: true, ScrubInterval: time.Millisecond})
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	trackDB(db)
	sum := db.RecoverySummary()
	e.logf("seed %d: recovered gen=%d replayed=%d losers=%d undone=%d torn=%v fresh=%v",
		e.seed, sum.Gen, sum.Replayed, sum.Losers, sum.UndoneOps, sum.Torn, sum.Fresh)
	if err := checkQuiesced(db); err != nil {
		db.Close()
		return fmt.Errorf("post-recovery: %w", err)
	}
	if err := e.keepWorking(db); err != nil {
		db.Close()
		return err
	}
	if err := checkQuiesced(db); err != nil {
		db.Close()
		return fmt.Errorf("post-recovery workload: %w", err)
	}
	// The online verifier must agree with the offline checker on the
	// recovered state: one unpaced full pass, zero divergences.
	if n, err := db.ScrubNow(context.Background()); err != nil {
		db.Close()
		return fmt.Errorf("post-recovery scrub: %w", err)
	} else if n > 0 {
		db.Close()
		return fmt.Errorf("post-recovery scrub found %d view-row divergences", n)
	}
	db.Crash(true)
	db2, err := core.Open(e.dir, core.Options{SyncMode: e.syncMode, Tracer: slowTracer, Watchdog: true})
	if err != nil {
		return fmt.Errorf("second recovery open: %w", err)
	}
	trackDB(db2)
	if err := checkQuiesced(db2); err != nil {
		db2.Close()
		return fmt.Errorf("second recovery: %w", err)
	}
	if err := db2.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	return e.checkWAL(true)
}

// checkQuiesced is the quiesce-point check: the offline recompute-from-base
// checker, then the differential read-path oracle — every entry of every tree
// must read the same through the snapshot path as through the lock-based one.
func checkQuiesced(db *core.DB) error {
	if err := db.CheckConsistency(); err != nil {
		return err
	}
	return db.CheckReadPaths(context.Background())
}

// keepWorking runs a short deterministic workload burst against the recovered
// database; recovery must hand back an instance that takes new transactions.
func (e *episode) keepWorking(db *core.DB) error {
	table := "accounts"
	switch e.shape {
	case "orders":
		table = "orders"
	case "rollup":
		table = "order_items"
	}
	if _, err := db.Catalog().Table(table); err != nil {
		// The crash predated the schema; nothing to exercise.
		e.logf("seed %d: no %s table after recovery (crashed during setup)", e.seed, table)
		return nil
	}
	rng := rand.New(rand.NewSource(e.seed + 1000003))
	for i := 0; i < 25; i++ {
		if err := e.step(db, rng); err != nil {
			return fmt.Errorf("post-recovery op %d: %w", i, err)
		}
	}
	return nil
}

// checkWAL scans the current generation's log and asserts the physical
// invariant recovery depends on: record LSNs are dense and ascending from 1.
// With repaired set, the log must also scan to the end without a torn tail
// (recovery has already truncated it).
func (e *episode) checkWAL(repaired bool) error {
	dir := wal.Dir{Path: e.dir}
	gen, fresh, err := dir.Current()
	if err != nil {
		return fmt.Errorf("wal check: %w", err)
	}
	if fresh {
		return nil // crashed before the first manifest commit
	}
	if _, err := os.Stat(dir.LogPath(gen)); errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal check: manifest names gen %d but %s is missing", gen, dir.LogPath(gen))
	}
	var prev uint64
	res, err := wal.Scan(dir.LogPath(gen), func(rec *wal.Record) error {
		if prev == 0 && rec.LSN != 1 {
			return fmt.Errorf("first record has LSN %d, want 1", rec.LSN)
		}
		if prev != 0 && rec.LSN != prev+1 {
			return fmt.Errorf("LSN %d follows %d (hole or reorder)", rec.LSN, prev)
		}
		prev = rec.LSN
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal check (gen %d): %w", gen, err)
	}
	if repaired && res.Torn {
		return fmt.Errorf("wal check (gen %d): tail still torn after recovery", gen)
	}
	return nil
}
