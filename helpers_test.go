package vtxn_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/workload"
)

// waitLockWaits returns once db has counted n blocked lock requests. A
// request is counted once it is queued.
func waitLockWaits(t *testing.T, db *vtxn.DB, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for db.Metrics().Lock.Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d lock requests blocked", db.Metrics().Lock.Waits, n)
		}
		runtime.Gosched()
	}
}

// The tilt workload the concurrency tests share: writer w owns rows 2w and
// 2w+1 of a table and moves one unit between them and back, both legs in one
// transaction, so every transaction-consistent read sees the load-time totals
// and a torn read shows up as a total that is off by one.
const (
	tiltWriters = 4
	tiltRows    = 2 * tiltWriters
)

// tilt sets column col of rows a and b to av and bv in one transaction.
func tilt(db *vtxn.DB, table string, col int, a, b, av, bv int64) error {
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		return err
	}
	if err := tx.Update(table, vtxn.Row{vtxn.Int(a)}, map[int]vtxn.Value{col: vtxn.Int(av)}); err != nil {
		tx.Rollback()
		return err
	}
	if err := tx.Update(table, vtxn.Row{vtxn.Int(b)}, map[int]vtxn.Value{col: vtxn.Int(bv)}); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// tiltStorm is a running set of tilt writers.
type tiltStorm struct {
	stop    atomic.Bool
	wg      sync.WaitGroup
	commits atomic.Int64
}

// startTilts starts tiltWriters writers over column col of table, whose first
// tiltRows rows all hold level. Each writer tilts n times (n even, so it ends
// level), or until halt when n is 0. A failed tilt fails t.
func startTilts(t *testing.T, db *vtxn.DB, table string, col int, level int64, n int) *tiltStorm {
	s := &tiltStorm{}
	for w := int64(0); w < tiltWriters; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for i := 0; (n == 0 || i < n) && !s.stop.Load(); i++ {
				av, bv := level-1, level+1
				if i%2 == 1 {
					av, bv = level, level
				}
				if err := tilt(db, table, col, 2*w, 2*w+1, av, bv); err != nil {
					t.Errorf("tilt writer %d: %v", w, err)
					return
				}
				s.commits.Add(1)
			}
		}()
	}
	return s
}

// wait blocks until every writer has finished and returns the commit count.
func (s *tiltStorm) wait() int64 {
	s.wg.Wait()
	return s.commits.Load()
}

// halt stops the writers and waits for them.
func (s *tiltStorm) halt() int64 {
	s.stop.Store(true)
	return s.wait()
}

// The rollup chain the view-DAG tests share: workload.Rollup's three levels
// over tiltRows order items, each item its own order and customer, so row
// counts nest level by level. Writers tilt the amount column, amountCol,
// around itemLevel.
const (
	amountCol   = 4
	itemLevel   = 100
	itemRegions = 2
)

var rollupChain = []string{workload.RollupL0, workload.RollupL1, workload.RollupL2}

// setupItemChain creates the chain with every level maintained by s, loads
// the items, and waits until the whole chain has folded them.
func setupItemChain(t *testing.T, db *vtxn.DB, s vtxn.Strategy) {
	t.Helper()
	w := workload.Rollup{Regions: itemRegions, Strategy: s}
	if err := w.Setup(db); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin(vtxn.ReadCommitted)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < tiltRows; i++ {
		if err := tx.Insert("order_items", vtxn.Row{
			vtxn.Int(i), vtxn.Int(i), vtxn.Int(i), vtxn.Str(w.Region(i)), vtxn.Int(itemLevel),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	drainTo(t, db, workload.RollupL2, tx.CommitTS())
}

// drainTo waits until view has applied every commit up to ts (immediately
// for a view maintained at commit).
func drainTo(t *testing.T, db *vtxn.DB, view string, ts uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := db.WaitForViewWatermark(ctx, view, ts); err != nil {
		t.Fatal(err)
	}
}

// flightRecordAfter returns the JSONL flight record once it holds view's
// watermark-advance crediting transaction txn. A watermark wait returns as
// soon as the applier's fold publishes the new watermark, which is before the
// applier traces that fold and the advance, so a record read right after the
// wait may not hold them yet.
func flightRecordAfter(t *testing.T, db *vtxn.DB, view string, txn uint64) []byte {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		var jsonl bytes.Buffer
		if err := db.WriteFlightRecordJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(jsonl.Bytes()))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var r struct {
				Type     string   `json:"type"`
				Resource string   `json:"resource"`
				Spans    []uint64 `json:"spans"`
			}
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("JSONL line does not parse: %v: %s", err, sc.Text())
			}
			if r.Type == "watermark-advance" && r.Resource == view && slices.Contains(r.Spans, txn) {
				return jsonl.Bytes()
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight record holds no watermark-advance of %s crediting txn %d", view, txn)
		}
	}
}

// viewTotals sums result columns countCol and sumCol over every row of view.
func viewTotals(tx *vtxn.Tx, view string, countCol, sumCol int) (count, sum int64, err error) {
	rows, err := tx.ScanView(view)
	if err != nil {
		return 0, 0, err
	}
	for _, r := range rows {
		count += r.Result[countCol].AsInt()
		if !r.Result[sumCol].IsNull() {
			sum += r.Result[sumCol].AsInt()
		}
	}
	return count, sum, nil
}
