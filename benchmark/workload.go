package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	vtxn "repro"
)

// Engine configurations. BENCHMARK.json has no place for them, so they are
// recorded here and in README.md.
//
// deployed is the one "as deployed" set every workload runs on: SyncNone
// (commits are flushed to the OS, never fsynced — what an fsync costs in a
// sandbox is the sandbox's), flight recorder on, scrubber and MVCC pruner at
// their 25 ms defaults, ghost cleaner every 10 ms, watchdog off.
func deployed() vtxn.Options {
	return vtxn.Options{GhostCleanInterval: 10 * time.Millisecond}
}

// loopsOff is the configuration of the core.* probes: no scrubber, no pruner,
// no ghost cleaner, so a single-threaded loop measures the commit path alone.
func loopsOff() vtxn.Options {
	return vtxn.Options{ScrubInterval: -1, MVCCPruneInterval: -1}
}

// The two plane ablations: deployed minus one observability plane.
func flightOff() vtxn.Options {
	o := deployed()
	o.FlightRecorderSize = -1
	return o
}

func scrubOff() vtxn.Options {
	o := deployed()
	o.ScrubInterval = -1
	return o
}

type schemaKind uint8

const (
	schemaAccounts       schemaKind = iota // accounts + escrow view branch_totals
	schemaAccountsNoView                   // accounts alone
	schemaRollup                           // order_items + 3-level deferred chain
)

const (
	tblAccounts  = "accounts"
	viewBranches = "branch_totals"
	tblItems     = "order_items"
	viewOrders   = "order_totals"
	viewCustomer = "customer_totals"
	viewRegions  = "region_totals"
)

type workload struct {
	name    string
	schema  schemaKind
	writers int
	readers int  // readers running beside the writers, inside the window
	timed   bool // false: a fixed count of transactions, then crash and recover
}

// workloads lists the five in the order BENCHMARK.json gives them; the "why"
// of each is recorded there and in README.md.
var workloads = []*workload{
	{name: "hot_escrow_write", schema: schemaAccounts, writers: 2, timed: true},
	{name: "noview_write", schema: schemaAccountsNoView, writers: 2, timed: true},
	{name: "snapshot_read_mixed", schema: schemaAccounts, writers: 1, readers: 1, timed: true},
	{name: "rollup_deferred_write", schema: schemaRollup, writers: 2, timed: true},
	{name: "crash_recover", schema: schemaAccounts, writers: 1},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// table is the base table the workload writes.
func (w *workload) table() string {
	if w.schema == schemaRollup {
		return tblItems
	}
	return tblAccounts
}

// topView is the last view the workload's writes reach ("" without a view).
func (w *workload) topView() string {
	switch w.schema {
	case schemaAccounts:
		return viewBranches
	case schemaRollup:
		return viewRegions
	}
	return ""
}

func (w *workload) newGen(seed int64, client, rows int) generator {
	if w.schema == schemaRollup {
		return newRollupGen(seed, client)
	}
	return newAccountsGen(seed, client, w.writers, rows)
}

var bg = context.Background()

// setup opens a database in dir, creates the workload's schema and preloads
// it, and returns the writers' generators positioned after the preload.
func (w *workload) setup(dir string, opts vtxn.Options, seed int64, rows int) (*vtxn.DB, []generator, error) {
	db, err := vtxn.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	gens := make([]generator, w.writers)
	for c := range gens {
		gens[c] = w.newGen(seed, c, rows)
	}
	if w.schema == schemaRollup {
		err = setupRollup(db, gens)
	} else {
		err = setupAccounts(db, w.schema == schemaAccounts, rows)
	}
	if err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return db, gens, nil
}

func intCol(name string) vtxn.Column { return vtxn.Column{Name: name, Kind: vtxn.KindInt64} }

func setupAccounts(db *vtxn.DB, withView bool, rows int) error {
	if err := db.CreateTable(tblAccounts,
		[]vtxn.Column{intCol("id"), intCol("branch"), intCol("balance")}, []int{0}); err != nil {
		return err
	}
	if withView {
		if err := db.CreateIndexedView(vtxn.ViewDef{
			Name: viewBranches, Kind: vtxn.ViewAggregate, Source: tblAccounts,
			GroupBy: []string{"branch"},
			Aggs:    []vtxn.AggSpec{vtxn.CountRows(), vtxn.Sum("balance")},
		}); err != nil {
			return err
		}
	}
	const batch = 500
	for lo := 0; lo < rows; lo += batch {
		tx, err := db.BeginTx(bg, vtxn.TxOptions{})
		if err != nil {
			return err
		}
		for id := lo; id < lo+batch && id < rows; id++ {
			row := vtxn.Row{vtxn.Int(int64(id)), vtxn.Int(int64(id % hotBranches)), vtxn.Int(preloadBalance)}
			if err := tx.Insert(tblAccounts, row); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// setupRollup creates the all-deferred chain and runs each client's first
// operations until it holds openOrders orders, so the window starts in the
// steady state where inserts are balanced by deletes.
func setupRollup(db *vtxn.DB, gens []generator) error {
	if err := db.CreateTable(tblItems, []vtxn.Column{
		intCol("item"), intCol("order_id"), intCol("customer"),
		{Name: "region", Kind: vtxn.KindString}, intCol("amount"),
	}, []int{0}); err != nil {
		return err
	}
	for _, v := range []vtxn.ViewDef{
		{Name: viewOrders, Source: tblItems,
			GroupBy: []string{"order_id", "customer", "region"},
			Aggs:    []vtxn.AggSpec{{Func: vtxn.AggSum, Arg: vtxn.NamedCol("amount"), Name: "total"}}},
		{Name: viewCustomer, Source: viewOrders,
			GroupBy: []string{"customer", "region"},
			Aggs: []vtxn.AggSpec{{Func: vtxn.AggCountRows, Name: "orders"},
				{Func: vtxn.AggSum, Arg: vtxn.NamedCol("total"), Name: "total"}}},
		{Name: viewRegions, Source: viewCustomer,
			GroupBy: []string{"region"},
			Aggs: []vtxn.AggSpec{{Func: vtxn.AggCountRows, Name: "customers"},
				{Func: vtxn.AggSum, Arg: vtxn.NamedCol("total"), Name: "total"}}},
	} {
		v.Kind, v.Strategy = vtxn.ViewAggregate, vtxn.StrategyDeferred
		if err := db.CreateIndexedView(v); err != nil {
			return err
		}
	}
	var last uint64
	for _, g := range gens {
		g := g.(*rollupGen)
		for g.live() < openOrders {
			tx, err := db.BeginTx(bg, vtxn.TxOptions{})
			if err != nil {
				return err
			}
			for i := 0; i < 50 && g.live() < openOrders; i++ {
				if err := applyOp(tx, nil, g.next()); err != nil {
					tx.Rollback()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
			last = tx.CommitTS()
		}
	}
	return db.WaitForViewWatermark(bg, viewRegions, last)
}

// applyOp issues one operation's statements inside tx, recording a span per
// call when tr is tracing.
func applyOp(tx *vtxn.Tx, tr *tracer, o op) error {
	if tr == nil {
		tr = &tracer{}
	}
	switch o.kind {
	case opTransfer:
		for _, leg := range [2]struct{ id, delta int64 }{{o.id, -o.amt[0]}, {o.id2, o.amt[0]}} {
			pk := vtxn.Row{vtxn.Int(leg.id)}
			s := tr.start()
			row, ok, err := tx.Get(tblAccounts, pk)
			tr.end(spGet, s)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("account %d is missing", leg.id)
			}
			s = tr.start()
			err = tx.Update(tblAccounts, pk, map[int]vtxn.Value{2: vtxn.Int(row[2].AsInt() + leg.delta)})
			tr.end(spUpdate, s)
			if err != nil {
				return err
			}
		}
	case opInsert:
		s := tr.start()
		err := tx.Insert(tblAccounts, vtxn.Row{vtxn.Int(o.id), vtxn.Int(o.group), vtxn.Int(o.amt[0])})
		tr.end(spInsert, s)
		return err
	case opDelete:
		s := tr.start()
		err := tx.Delete(tblAccounts, vtxn.Row{vtxn.Int(o.id)})
		tr.end(spDelete, s)
		return err
	case opNewOrder:
		for i, amt := range o.amt {
			s := tr.start()
			err := tx.Insert(tblItems, vtxn.Row{vtxn.Int(itemID(o.id, i)), vtxn.Int(o.id),
				vtxn.Int(o.group), vtxn.Str(regionOf(o.group)), vtxn.Int(amt)})
			tr.end(spInsert, s)
			if err != nil {
				return err
			}
		}
	case opDeleteOrder:
		for i := 0; i < itemsPerOrder; i++ {
			s := tr.start()
			err := tx.Delete(tblItems, vtxn.Row{vtxn.Int(itemID(o.id, i))})
			tr.end(spDelete, s)
			if err != nil {
				return err
			}
		}
	case opAmend:
		pk := vtxn.Row{vtxn.Int(itemID(o.id, o.item))}
		s := tr.start()
		row, ok, err := tx.Get(tblItems, pk)
		tr.end(spGet, s)
		if err != nil {
			return err
		}
		if !ok || row[4].AsInt() != o.id2 {
			return fmt.Errorf("item %d of order %d: stored %v, generated amount %d", o.item, o.id, row, o.id2)
		}
		s = tr.start()
		err = tx.Update(tblItems, pk, map[int]vtxn.Value{4: vtxn.Int(o.amt[o.item])})
		tr.end(spUpdate, s)
		return err
	}
	return nil
}

// control is what the coordinator shares with its clients.
type control struct {
	stop      atomic.Bool
	measuring atomic.Bool // latencies are sampled only inside the window
	tracing   atomic.Bool // spans are recorded only in traced intervals
}

// latencyEvery: one transaction in 8 has its latency sampled.
const latencyEvery = 8

// client is one closed-loop goroutine: a writer running a generator's
// operations, or a reader issuing read-only snapshot transactions.
type client struct {
	db   *vtxn.DB
	w    *workload
	ctl  *control
	gen  generator  // writers
	rng  *rand.Rand // readers
	rows int
	tr   tracer
	mod  model // kept in step with acknowledged commits when non-nil

	n       uint64
	lat     []int64 // sampled latencies, ns
	done    atomic.Int64
	failed  atomic.Int64
	lastErr error
	lastTS  uint64 // commit timestamp of the last write
}

func (c *client) fail(err error) {
	c.failed.Add(1)
	c.lastErr = err
}

// writeOne runs the generator's next operation as one transaction.
func (c *client) writeOne() {
	o := c.gen.next()
	c.n++
	c.tr.on = c.ctl.tracing.Load()
	sample := c.n%latencyEvery == 0 && c.ctl.measuring.Load()
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	c.tr.openTx(spTx)
	s := c.tr.start()
	tx, err := c.db.BeginTx(bg, vtxn.TxOptions{})
	c.tr.end(spBegin, s)
	if err != nil {
		c.fail(err)
		return
	}
	if err := applyOp(tx, &c.tr, o); err != nil {
		tx.Rollback()
		c.fail(err)
		return
	}
	s = c.tr.start()
	err = tx.Commit()
	c.tr.end(spCommit, s)
	if err != nil {
		c.fail(err)
		return
	}
	c.tr.closeTx(uint64(tx.ID()))
	if sample {
		c.lat = append(c.lat, int64(time.Since(t0)))
	}
	c.lastTS = tx.CommitTS()
	if c.mod != nil {
		c.mod.apply(o)
	}
	c.done.Add(1)
}

// readOne runs one read-only snapshot transaction: 90 % a point read, 10 % a
// short range scan, against the workload's top view (its table without one).
func (c *client) readOne() {
	c.n++
	c.tr.on = c.ctl.tracing.Load()
	sample := c.n%latencyEvery == 0 && c.ctl.measuring.Load()
	var t0 time.Time
	if sample {
		t0 = time.Now()
	}
	scan := c.rng.Intn(10) == 0
	c.tr.openTx(spRoTx)
	s := c.tr.start()
	tx, err := c.db.BeginTx(bg, vtxn.TxOptions{Isolation: vtxn.Snapshot, ReadOnly: true})
	c.tr.end(spRoBegin, s)
	if err != nil {
		c.fail(err)
		return
	}
	s = c.tr.start()
	if scan {
		err = c.scan(tx)
		c.tr.end(spReadScan, s)
	} else {
		err = c.get(tx)
		c.tr.end(spReadGet, s)
	}
	if err != nil {
		tx.Rollback()
		c.fail(err)
		return
	}
	s = c.tr.start()
	err = tx.Commit()
	c.tr.end(spRoCommit, s)
	if err != nil {
		c.fail(err)
		return
	}
	c.tr.closeTx(uint64(tx.ID()))
	if sample {
		c.lat = append(c.lat, int64(time.Since(t0)))
	}
	c.done.Add(1)
}

func (c *client) get(tx *vtxn.Tx) error {
	var ok bool
	var err error
	switch c.w.schema {
	case schemaAccounts:
		_, ok, err = tx.GetViewRow(viewBranches, vtxn.Row{vtxn.Int(c.rng.Int63n(hotBranches))})
	case schemaAccountsNoView:
		_, ok, err = tx.Get(tblAccounts, vtxn.Row{vtxn.Int(c.rng.Int63n(int64(c.rows)))})
	case schemaRollup:
		// Not gated on ok: snapshot reads of a deferred stacked chain can miss
		// a group at HEAD (ROADMAP 0a); README.md records it as a finding.
		_, _, err = tx.GetViewRow(viewRegions, vtxn.Row{vtxn.Str(regionNames[c.rng.Intn(regions)])})
		ok = true
	}
	if err == nil && !ok {
		err = fmt.Errorf("%s: point read found no row", c.w.name)
	}
	return err
}

// scan reads a short range and checks what must hold of it at any snapshot.
func (c *client) scan(tx *vtxn.Tx) error {
	switch c.w.schema {
	case schemaAccounts:
		rows, err := tx.ScanViewRange(viewBranches, vtxn.Row{vtxn.Int(0)}, vtxn.Row{vtxn.Int(hotBranches)})
		if err != nil {
			return err
		}
		// Transfers conserve the total and every insert is worth
		// insertBalance, so over the hot branches Σsum − 10·Σcount is fixed.
		var count, sum int64
		for _, r := range rows {
			count += r.Result[0].AsInt()
			sum += r.Result[1].AsInt()
		}
		if want := int64(c.rows) * (preloadBalance - insertBalance); sum-insertBalance*count != want {
			return fmt.Errorf("%s: scan invariant: sum %d - %d*count %d != %d", c.w.name, sum, insertBalance, count, want)
		}
	case schemaAccountsNoView:
		lo, n := c.rng.Int63n(int64(c.rows)-hotBranches), 0
		err := tx.ScanTable(tblAccounts, vtxn.Row{vtxn.Int(lo)}, vtxn.Row{vtxn.Int(lo + hotBranches)},
			func(vtxn.Row) bool { n++; return true })
		if err != nil {
			return err
		}
		if n != hotBranches { // preloaded rows are never deleted
			return fmt.Errorf("%s: scan of %d preloaded rows returned %d", c.w.name, hotBranches, n)
		}
	case schemaRollup:
		_, err := tx.ScanViewRange(viewRegions, nil, nil) // ungated: see get
		return err
	}
	return nil
}

// model is a client-side copy of the workload's base table, keyed by primary
// key, holding the two columns operations change. crash_recover checks every
// acknowledged row against it after the engine reopens.
type model map[int64][2]int64

// modelRow maps a stored row to its model entry.
func (w *workload) modelRow(r vtxn.Row) (int64, [2]int64) {
	if w.schema == schemaRollup {
		return r[0].AsInt(), [2]int64{r[2].AsInt(), r[4].AsInt()} // customer, amount
	}
	return r[0].AsInt(), [2]int64{r[1].AsInt(), r[2].AsInt()} // branch, balance
}

func (m model) apply(o op) {
	switch o.kind {
	case opTransfer:
		a, b := m[o.id], m[o.id2]
		a[1] -= o.amt[0]
		b[1] += o.amt[0]
		m[o.id], m[o.id2] = a, b
	case opInsert:
		m[o.id] = [2]int64{o.group, o.amt[0]}
	case opDelete:
		delete(m, o.id)
	case opNewOrder:
		for i, amt := range o.amt {
			m[itemID(o.id, i)] = [2]int64{o.group, amt}
		}
	case opDeleteOrder:
		for i := 0; i < itemsPerOrder; i++ {
			delete(m, itemID(o.id, i))
		}
	case opAmend:
		e := m[itemID(o.id, o.item)]
		e[1] = o.amt[o.item]
		m[itemID(o.id, o.item)] = e
	}
}

// readModel scans the workload's base table into a model.
func (w *workload) readModel(db *vtxn.DB) (model, error) {
	m := model{}
	tx, err := db.BeginTx(bg, vtxn.TxOptions{})
	if err != nil {
		return nil, err
	}
	err = tx.ScanTable(w.table(), nil, nil, func(r vtxn.Row) bool {
		k, v := w.modelRow(r)
		m[k] = v
		return true
	})
	if err != nil {
		tx.Rollback()
		return nil, err
	}
	return m, tx.Commit()
}

// diff reports the first few places the stored table departs from the model.
func (m model) diff(stored model) error {
	var bad []string
	note := func(format string, a ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, a...))
		}
	}
	for k, v := range m {
		if got, ok := stored[k]; !ok {
			note("row %d acknowledged but missing", k)
		} else if got != v {
			note("row %d is %v, acknowledged %v", k, got, v)
		}
	}
	for k := range stored {
		if _, ok := m[k]; !ok {
			note("row %d stored but never acknowledged", k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("durability: %d stored rows vs %d acknowledged: %v", len(stored), len(m), bad)
}
