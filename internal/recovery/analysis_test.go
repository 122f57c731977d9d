package recovery

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apply"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

// countingFS counts, for one path, the opens for reading and the Read calls on
// those files, and keeps the length of the largest buffer a Read was handed.
type countingFS struct {
	fault.FS
	path    string
	opens   int
	reads   int
	maxRead int
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || name != c.path || flag&(os.O_WRONLY|os.O_RDWR) != 0 {
		return f, err
	}
	c.opens++
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	fault.File
	fs *countingFS
}

func (f *countingFile) Read(p []byte) (int, error) {
	f.fs.reads++
	f.fs.maxRead = max(f.fs.maxRead, len(p))
	return f.File.Read(p)
}

// logWriter opens a fresh database in dir and returns its log writer with an
// append helper that returns each record's LSN.
func logWriter(t *testing.T, dir string) (*wal.Writer, func(*wal.Record) uint64) {
	t.Helper()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	w := st.Log
	return w, func(rec *wal.Record) uint64 {
		t.Helper()
		lsn, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
}

// addCatalog logs cat as the DDL of committed system transaction 1.
func addCatalog(append_ func(*wal.Record) uint64, cat *catalog.Catalog) {
	append_(&wal.Record{Type: wal.TBegin, Txn: 1, Sys: true})
	append_(&wal.Record{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()})
	append_(&wal.Record{Type: wal.TCommit, Txn: 1, Sys: true})
}

func logPath(t *testing.T, dir string) string {
	t.Helper()
	d := wal.Dir{Path: dir}
	gen, _, err := d.Current()
	if err != nil {
		t.Fatal(err)
	}
	return d.LogPath(gen)
}

// TestRestartReadsLogOnce: restart opens the log for reading once and reads
// it through one buffer, about one Read per buffer of log. The buffer's size
// is the largest a Read was handed: a scan of N bytes may issue
// ceil(N/size) Reads, plus the one that sees EOF and one for a partly filled
// buffer.
func TestRestartReadsLogOnce(t *testing.T) {
	dir := t.TempDir()
	w, append_ := logWriter(t, dir)
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	addCatalog(append_, cat)
	val := bytes.Repeat([]byte("v"), 100)
	records := 3
	for txn := id.Txn(2); txn < 16000; txn++ {
		key := record.EncodeKey(record.Row{record.Int(int64(txn))})
		append_(&wal.Record{Type: wal.TBegin, Txn: txn})
		append_(&wal.Record{Type: wal.TInsert, Txn: txn, Tree: tbl.ID, Key: key, NewVal: val})
		append_(&wal.Record{Type: wal.TCommit, Txn: txn})
		records += 3
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := logPath(t, dir)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	n := info.Size()

	fsys := &countingFS{FS: fault.OS{}, path: path}
	st, err := RunFS(fsys, dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if st.Summary.Replayed != records {
		t.Fatalf("replayed %d records, logged %d", st.Summary.Replayed, records)
	}
	if fsys.opens != 1 {
		t.Fatalf("log opened for reading %d times, want 1", fsys.opens)
	}
	size := int64(fsys.maxRead)
	if n <= 2*size {
		t.Fatalf("log of %d bytes spans too few scan buffers of %d bytes", n, size)
	}
	if limit := int((n+size-1)/size) + 2; fsys.reads > limit {
		t.Fatalf("%d Read calls for %d bytes of log through a %d-byte buffer, want at most %d",
			fsys.reads, n, size, limit)
	}
}

// openTxnLog is a hand-built log of interleaved transactions: committed ones,
// a runtime abort (ops, CLRs, TAbortEnd), loser 6 rolled back halfway before
// the crash (a CLR for its last op only) and loser 7 with no CLRs.
type openTxnLog struct {
	tree     id.Tree
	undo     []undoOp          // the inserts restart must compensate, in order
	gone     []int64           // keys that must not survive restart
	kept     []int64           // committed keys
	finished map[id.Txn]uint64 // LSN of each commit or abort-end
}

// undoOp is one insert of key by txn, logged at lsn.
type undoOp struct {
	txn id.Txn
	key int64
	lsn uint64
}

func buildOpenTxnLog(t *testing.T, dir string) openTxnLog {
	t.Helper()
	w, append_ := logWriter(t, dir)
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	addCatalog(append_, cat)
	l := openTxnLog{tree: tbl.ID, finished: map[id.Txn]uint64{1: 3}}
	key := func(k int64) []byte { return record.EncodeKey(record.Row{record.Int(k)}) }
	begin := func(txn id.Txn) { append_(&wal.Record{Type: wal.TBegin, Txn: txn}) }
	ins := func(txn id.Txn, k int64) uint64 {
		return append_(&wal.Record{Type: wal.TInsert, Txn: txn, Tree: tbl.ID, Key: key(k), NewVal: []byte("v")})
	}
	clr := func(txn id.Txn, k int64, undone uint64) {
		append_(&wal.Record{Type: wal.TCLR, Action: wal.TDelete, Txn: txn, Tree: tbl.ID,
			Key: key(k), OldVal: []byte("v"), UndoneLSN: undone})
	}
	end := func(txn id.Txn, typ wal.Type) {
		l.finished[txn] = append_(&wal.Record{Type: typ, Txn: txn})
	}

	begin(5)
	begin(6)
	begin(10)
	ins(10, 100)
	a50 := ins(5, 50)
	begin(7)
	b60 := ins(6, 60)
	begin(11)
	ins(11, 110)
	c70 := ins(7, 70)
	a51 := ins(5, 51)
	end(11, wal.TCommit)
	end(10, wal.TCommit)
	b61 := ins(6, 61)
	clr(5, 51, a51)
	var b62, c71 uint64
	for i := int64(0); i < 14; i++ {
		txn := id.Txn(20 + i)
		begin(txn)
		ins(txn, 200+i)
		switch i {
		case 3:
			b62 = ins(6, 62)
		case 5:
			clr(5, 50, a50)
		case 7:
			end(5, wal.TAbortEnd)
		case 9:
			c71 = ins(7, 71)
		case 11:
			clr(6, 62, b62)
		}
		end(txn, wal.TCommit)
		l.kept = append(l.kept, 200+i)
	}
	l.kept = append(l.kept, 100, 110)
	l.undo = []undoOp{{7, 71, c71}, {7, 70, c70}, {6, 61, b61}, {6, 60, b60}}
	l.gone = []int64{50, 51, 60, 61, 62, 70, 71}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRestartUndoesUncompensatedOps: restart undoes exactly the operations of
// the losers that no CLR compensated, newest transaction and newest operation
// first, and appends exactly those CLRs and one TAbortEnd per loser.
func TestRestartUndoesUncompensatedOps(t *testing.T) {
	dir := t.TempDir()
	l := buildOpenTxnLog(t, dir)
	path := logPath(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := wal.Scan(path, func(*wal.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if st.Summary.Losers != 2 || st.Summary.UndoneOps != len(l.undo) {
		t.Fatalf("summary = %+v", st.Summary)
	}
	tree := st.Trees[l.tree]
	for _, k := range l.kept {
		if _, _, ok := tree.Get(record.EncodeKey(record.Row{record.Int(k)})); !ok {
			t.Fatalf("committed key %d lost", k)
		}
	}
	for _, k := range l.gone {
		if _, _, ok := tree.Get(record.EncodeKey(record.Row{record.Int(k)})); ok {
			t.Fatalf("key %d of an aborted or losing transaction survived", k)
		}
	}
	if err := st.Log.Close(); err != nil {
		t.Fatal(err)
	}

	// The bytes restart appended are each loser's CLRs, then its abort-end.
	want := filepath.Join(t.TempDir(), "want")
	w, err := wal.Create(want, scan.LastLSN+1, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range l.undo {
		recs := []*wal.Record{{Type: wal.TCLR, Action: wal.TDelete, Txn: op.txn, Tree: l.tree,
			Key: record.EncodeKey(record.Row{record.Int(op.key)}), OldVal: []byte("v"), UndoneLSN: op.lsn}}
		if i+1 == len(l.undo) || l.undo[i+1].txn != op.txn {
			recs = append(recs, &wal.Record{Type: wal.TAbortEnd, Txn: op.txn})
		}
		for _, rec := range recs {
			if _, err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wantTail, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) || !bytes.Equal(after[len(before):], wantTail) {
		t.Fatalf("restart appended %d bytes, want the %d bytes of the expected CLRs and abort-ends",
			len(after)-len(before), len(wantTail))
	}
}

// TestAnalysisRetainsOpenTransactionsOnly drives restart's bookkeeping record
// by record: it never holds a transaction past its commit or abort-end, and
// at the end holds the losers with exactly their uncompensated operations.
func TestAnalysisRetainsOpenTransactionsOnly(t *testing.T) {
	dir := t.TempDir()
	l := buildOpenTxnLog(t, dir)
	an := analysis{open: make(map[id.Txn]*txnInfo)}
	_, err := wal.Scan(logPath(t, dir), func(rec *wal.Record) error {
		an.add(rec)
		for tid := range an.open {
			if lsn, ok := l.finished[tid]; ok && lsn <= rec.LSN {
				t.Fatalf("after LSN %d: finished transaction %s still retained", rec.LSN, tid)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := an.losers(); !reflect.DeepEqual(got, []id.Txn{7, 6}) {
		t.Fatalf("losers = %v, want [7 6]", got)
	}
	if an.open[7].undone != nil {
		t.Fatal("a loser with no CLRs has an undone set")
	}
	if an.maxTxn != 33 {
		t.Fatalf("maxTxn = %d, want 33", an.maxTxn)
	}
	var got []undoOp
	for _, tid := range an.losers() {
		err := an.open[tid].undo(func(op *wal.Record) error {
			row, err := record.DecodeKey(op.Key)
			if err != nil || op.Type != wal.TInsert || op.Tree != l.tree {
				t.Fatalf("undo of %s yielded %s", tid, op)
			}
			got = append(got, undoOp{op.Txn, row[0].AsInt(), op.LSN})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, l.undo) {
		t.Fatalf("undone = %v, want %v", got, l.undo)
	}
}

// TestRedoKeepsNothingOfTheScanBuffer replays a TDDL record, an insert and
// escrow folds (one committed, one a loser's) as restart's redo pass does,
// scribbling over each record's bytes once its callback returns, as the
// scanner's next read may: the catalog and trees must come out as restart
// builds them from the same log.
func TestRedoKeepsNothingOfTheScanBuffer(t *testing.T) {
	dir := t.TempDir()
	w, append_ := logWriter(t, dir)
	cat := catalog.New()
	acc, err := cat.AddTable("acc", []catalog.Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "grp", Kind: record.KindInt64},
		{Name: "val", Kind: record.KindInt64},
	}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	v, err := cat.AddView(catalog.View{
		Name: "totals", Kind: catalog.ViewAggregate, Left: "acc",
		GroupByCols: []int{1},
		Aggs:        []expr.AggSpec{{Func: expr.AggCountRows}, {Func: expr.AggSum, Arg: expr.Col(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	addCatalog(append_, cat)
	key := record.EncodeKey(record.Row{record.Int(7)})
	fold := func(txn id.Txn, sum int64) *wal.Record {
		return &wal.Record{Type: wal.TEscrowFold, Txn: txn, Tree: v.ID, Key: key,
			Deltas: []wal.ColDelta{{Col: 0, Int: 1}, {Col: 1, Int: 1}, {Col: 2, Int: 1}, {Col: 3, Int: sum}}}
	}
	append_(&wal.Record{Type: wal.TBegin, Txn: 2})
	append_(&wal.Record{Type: wal.TInsert, Txn: 2, Tree: acc.ID, Key: record.EncodeKey(record.Row{record.Int(1)}),
		NewVal: record.EncodeRow(record.Row{record.Int(1), record.Int(7), record.Int(100)})})
	append_(fold(2, 100))
	append_(&wal.Record{Type: wal.TCommit, Txn: 2})
	append_(&wal.Record{Type: wal.TBegin, Txn: 3})
	append_(fold(3, 50)) // a loser's fold, undone from its arena copy
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	reg, err := apply.NewRegistry(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	trees := make(map[id.Tree]*btree.Tree)
	source := func(tid id.Tree) *btree.Tree {
		if trees[tid] == nil {
			trees[tid] = btree.New()
		}
		return trees[tid]
	}
	an := analysis{open: make(map[id.Txn]*txnInfo)}
	_, err = wal.Scan(logPath(t, dir), func(rec *wal.Record) error {
		an.add(rec)
		if err := apply.Apply(reg, source, rec); err != nil {
			return err
		}
		for _, b := range [][]byte{rec.Key, rec.OldVal, rec.NewVal} {
			for i := range b {
				b[i] = 0xA5
			}
		}
		for i := range rec.Deltas {
			rec.Deltas[i] = wal.ColDelta{Col: 0xA5, Int: -0xA5}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range an.losers() {
		err := an.open[tid].undo(func(op *wal.Record) error {
			_, err := apply.Invert(reg, source, op)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if string(reg.Catalog().Encode()) != string(cat.Encode()) {
		t.Fatal("replayed catalog changed with the scan buffer")
	}
	items := func(trees map[id.Tree]*btree.Tree) map[id.Tree][]btree.Item {
		out := make(map[id.Tree][]btree.Item)
		for tid, tr := range trees {
			if got := tr.Items(nil, nil, true); len(got) > 0 {
				out[tid] = got
			}
		}
		return out
	}
	replayed := items(trees)
	row, err := record.DecodeRow(replayed[v.ID][0].Val)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsInt() != 1 || row[3].AsInt() != 100 {
		t.Fatalf("folded row = %v, want the committed fold only", row)
	}

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if st.Summary.Losers != 1 || st.Summary.UndoneOps != 1 {
		t.Fatalf("summary = %+v", st.Summary)
	}
	if string(st.Catalog().Encode()) != string(cat.Encode()) {
		t.Fatal("recovered catalog differs from the logged one")
	}
	if !reflect.DeepEqual(replayed, items(st.Trees)) {
		t.Fatal("trees changed with the scan buffer")
	}
}
