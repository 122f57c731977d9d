package recovery

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

func TestBootstrapFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if !st.Summary.Fresh || st.Gen != 1 || st.NextTxn != 1 {
		t.Fatalf("fresh state: %+v", st.Summary)
	}
	// The manifest is committed, so a second Run is no longer fresh.
	st.Log.Close()
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Summary.Fresh {
		t.Fatal("second run still fresh")
	}
}

func TestRunCreatesMissingDirectory(t *testing.T) {
	dir := t.TempDir() + "/nested/deeper"
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	st.Log.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("directory not created")
	}
}

// buildLog writes a log with one committed and one loser transaction.
func buildLog(t *testing.T, dir string) (tblID id.Tree) {
	t.Helper()
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	w := st.Log
	append_ := func(rec *wal.Record) {
		t.Helper()
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	append_(&wal.Record{Type: wal.TBegin, Txn: 1, Sys: true})
	append_(&wal.Record{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()})
	append_(&wal.Record{Type: wal.TCommit, Txn: 1, Sys: true})

	k1 := record.EncodeKey(record.Row{record.Int(1)})
	k2 := record.EncodeKey(record.Row{record.Int(2)})
	append_(&wal.Record{Type: wal.TBegin, Txn: 2})
	append_(&wal.Record{Type: wal.TInsert, Txn: 2, Tree: tbl.ID, Key: k1, NewVal: []byte("committed")})
	append_(&wal.Record{Type: wal.TCommit, Txn: 2})

	append_(&wal.Record{Type: wal.TBegin, Txn: 3})
	append_(&wal.Record{Type: wal.TInsert, Txn: 3, Tree: tbl.ID, Key: k2, NewVal: []byte("loser")})
	// No commit: txn 3 is a loser.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return tbl.ID
}

func TestRedoAndUndo(t *testing.T) {
	dir := t.TempDir()
	tblID := buildLog(t, dir)

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if st.Summary.Losers != 1 || st.Summary.UndoneOps != 1 {
		t.Fatalf("summary = %+v", st.Summary)
	}
	if st.NextTxn != 4 {
		t.Fatalf("NextTxn = %d", st.NextTxn)
	}
	if _, err := st.Catalog().Table("t"); err != nil {
		t.Fatal("DDL not replayed")
	}
	tree := st.Trees[tblID]
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	k2 := record.EncodeKey(record.Row{record.Int(2)})
	if v, _, ok := tree.Get(k1); !ok || string(v) != "committed" {
		t.Fatal("committed row lost")
	}
	if _, _, ok := tree.Get(k2); ok {
		t.Fatal("loser's row survived undo")
	}
	// The undo wrote a CLR + abort-end: the log now ends the loser, so a
	// second recovery finds no losers.
	st.Log.Close()
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Summary.Losers != 0 {
		t.Fatalf("second recovery losers = %d", st2.Summary.Losers)
	}
	if _, _, ok := st2.Trees[tblID].Get(k2); ok {
		t.Fatal("loser's row resurrected by replaying CLRs")
	}
}

func TestCheckpointRotatesGeneration(t *testing.T) {
	dir := t.TempDir()
	tblID := buildLog(t, dir)
	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	writer, gen, err := Checkpoint(dir, st.Gen, st.Log, st.Catalog(), st.Trees, st.NextTxn, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if gen != st.Gen+1 {
		t.Fatalf("gen = %d", gen)
	}
	// Post-checkpoint work goes to the new log.
	k3 := record.EncodeKey(record.Row{record.Int(3)})
	writer.Append(&wal.Record{Type: wal.TBegin, Txn: 10})
	writer.Append(&wal.Record{Type: wal.TInsert, Txn: 10, Tree: tblID, Key: k3, NewVal: []byte("post")})
	writer.Append(&wal.Record{Type: wal.TCommit, Txn: 10})
	writer.Close()

	// The old generation's files are gone.
	d := wal.Dir{Path: dir}
	if _, err := os.Stat(d.LogPath(st.Gen)); !os.IsNotExist(err) {
		t.Fatal("old log not removed")
	}
	st2, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Log.Close()
	if st2.Gen != gen {
		t.Fatalf("recovered gen = %d, want %d", st2.Gen, gen)
	}
	tree := st2.Trees[tblID]
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	if _, _, ok := tree.Get(k1); !ok {
		t.Fatal("snapshotted row lost")
	}
	if _, _, ok := tree.Get(k3); !ok {
		t.Fatal("post-checkpoint row lost")
	}
	// NextTxn respects both snapshot watermark and log records.
	if st2.NextTxn < 11 {
		t.Fatalf("NextTxn = %d", st2.NextTxn)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	buildLog(t, dir)
	// Tear the log tail.
	d := wal.Dir{Path: dir}
	gen, _, _ := d.Current()
	info, err := os.Stat(d.LogPath(gen))
	if err != nil {
		t.Fatal(err)
	}
	os.Truncate(d.LogPath(gen), info.Size()-2)

	st, err := Run(dir, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Log.Close()
	if !st.Summary.Torn {
		t.Fatal("torn tail not reported")
	}
	// The torn record was the loser's insert: now the loser has no ops (its
	// begin may also have survived) — either way recovery must succeed and
	// committed data must be intact.
	k1 := record.EncodeKey(record.Row{record.Int(1)})
	var found bool
	for _, tr := range st.Trees {
		if _, _, ok := tr.Get(k1); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("committed row lost after torn-tail recovery")
	}
}

// TestRestartIsDeterministic recovers copies of one crashed directory with
// several losers: each restart must write the same bytes, so the losers are
// undone in a fixed order.
func TestRestartIsDeterministic(t *testing.T) {
	crashed := t.TempDir()
	st, err := Run(crashed, wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	tbl, err := cat.AddTable("t", []catalog.Column{{Name: "id", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	w := st.Log
	append_ := func(rec *wal.Record) {
		t.Helper()
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	append_(&wal.Record{Type: wal.TBegin, Txn: 1, Sys: true})
	append_(&wal.Record{Type: wal.TDDL, Txn: 1, Sys: true, OldVal: catalog.New().Encode(), NewVal: cat.Encode()})
	append_(&wal.Record{Type: wal.TCommit, Txn: 1, Sys: true})
	// Eight losers, their inserts interleaved, none committed.
	const losers = 8
	for txn := id.Txn(2); txn < 2+losers; txn++ {
		append_(&wal.Record{Type: wal.TBegin, Txn: txn})
	}
	for round := int64(0); round < 2; round++ {
		for txn := id.Txn(2); txn < 2+losers; txn++ {
			key := record.EncodeKey(record.Row{record.Int(int64(txn)*10 + round)})
			append_(&wal.Record{Type: wal.TInsert, Txn: txn, Tree: tbl.ID, Key: key, NewVal: []byte("loser")})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var first map[string][]byte
	for i := 0; i < 4; i++ {
		dir := t.TempDir()
		copyDir(t, crashed, dir)
		st, err := Run(dir, wal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		if st.Summary.Losers != losers {
			t.Fatalf("recovery %d: %d losers, want %d", i, st.Summary.Losers, losers)
		}
		if err := st.Log.Close(); err != nil {
			t.Fatal(err)
		}
		got := readDir(t, dir)
		if first == nil {
			first = got
			continue
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("recovery %d wrote different bytes than recovery 0", i)
		}
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	for name, b := range readDir(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readDir returns the contents of every regular file in dir by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			t.Fatalf("unexpected entry %s in %s", e.Name(), dir)
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}
