package wal

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/id"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: TBegin, Txn: 7},
		{Type: TInsert, Txn: 7, Tree: 3, Key: []byte("k1"), NewVal: []byte("v1"), NewGhost: true},
		{Type: TUpdate, Txn: 7, Tree: 3, Key: []byte("k1"), OldVal: []byte("v1"), NewVal: []byte("v2")},
		{Type: TSetGhost, Txn: 7, Tree: 3, Key: []byte("k1"), OldGhost: true, NewGhost: false},
		{Type: TEscrowFold, Txn: 7, Tree: 9, Key: []byte("g"), Deltas: []ColDelta{
			{Col: 1, Int: -12},
			{Col: 2, IsFloat: true, Float: 3.75},
		}, OldGhost: true},
		{Type: TDelete, Txn: 7, Tree: 3, Key: []byte("k1"), OldVal: []byte("v2")},
		{Type: TCLR, Txn: 7, Action: TInsert, UndoneLSN: 6, Tree: 3, Key: []byte("k1"), NewVal: []byte("v2")},
		{Type: TCommit, Txn: 7, Sys: true},
		{Type: TAbortEnd, Txn: 8},
	}
}

func recordsEqual(a, b *Record) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

// normalize maps nil and empty byte slices to nil for comparison.
func normalize(r *Record) *Record {
	c := *r
	if len(c.Key) == 0 {
		c.Key = nil
	}
	if len(c.OldVal) == 0 {
		c.OldVal = nil
	}
	if len(c.NewVal) == 0 {
		c.NewVal = nil
	}
	if len(c.Deltas) == 0 {
		c.Deltas = nil
	}
	return &c
}

func TestRecordRoundTrip(t *testing.T) {
	for i, r := range sampleRecords() {
		r.LSN = uint64(i + 1)
		enc := r.Encode(nil)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !recordsEqual(r, dec) {
			t.Fatalf("record %d: %+v != %+v", i, r, dec)
		}
	}
}

func TestRecordDecodeErrors(t *testing.T) {
	r := sampleRecords()[4] // escrow fold with deltas
	r.LSN = 1
	good := r.Encode(nil)
	for i := 0; i < len(good); i++ {
		if _, err := DecodeRecord(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeRecord(append(append([]byte{}, good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 1500,
		Values: func(args []reflect.Value, rng *rand.Rand) {
			args[0] = reflect.ValueOf(randomRecord(rng))
		},
	}
	f := func(r *Record) bool {
		dec, err := DecodeRecord(r.Encode(nil))
		return err == nil && recordsEqual(r, dec)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func randomRecord(rng *rand.Rand) *Record {
	randBytes := func() []byte {
		n := rng.Intn(16)
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	r := &Record{
		LSN:       rng.Uint64() >> 1,
		Type:      Type(rng.Intn(int(TCLR)) + 1),
		Action:    Type(rng.Intn(int(TCLR)) + 1),
		Txn:       id.Txn(rng.Uint64() >> 1),
		Sys:       rng.Intn(2) == 0,
		Tree:      id.Tree(rng.Uint32()),
		Key:       randBytes(),
		OldVal:    randBytes(),
		NewVal:    randBytes(),
		OldGhost:  rng.Intn(2) == 0,
		NewGhost:  rng.Intn(2) == 0,
		UndoneLSN: rng.Uint64() >> 1,
	}
	for i := rng.Intn(4); i > 0; i-- {
		d := ColDelta{Col: rng.Uint32()}
		if rng.Intn(2) == 0 {
			d.IsFloat = true
			d.Float = math.Float64frombits(rng.Uint64() &^ (0x7FF << 52))
		} else {
			d.Int = int64(rng.Uint64())
		}
		r.Deltas = append(r.Deltas, d)
	}
	return r
}

func TestWriteScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := Create(path, 1, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []*Record
	res, err := Scan(path, func(r *Record) error {
		got = append(got, r.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	if res.LastLSN != uint64(len(recs)) {
		t.Fatalf("LastLSN = %d, want %d", res.LastLSN, len(recs))
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, got[i].LSN)
		}
		if !recordsEqual(recs[i], got[i]) {
			t.Fatalf("record %d mismatch:\n%+v\n%+v", i, recs[i], got[i])
		}
	}
}

// TestScanCloneSurvivesBufferReuse: the record a Scan callback gets aliases
// the scan buffer, which later reads overwrite; its Clone does not.
func TestScanCloneSurvivesBufferReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, err := Create(path, 1, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	first := sampleRecords()[4] // an escrow fold: key and deltas
	first.NewVal = bytes.Repeat([]byte("first"), 20)
	if _, err := w.Append(first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*scanBufSize/100; i++ {
		w.Append(&Record{Type: TEscrowFold, Txn: id.Txn(i), Tree: 9, Key: []byte(fmt.Sprint("g", i)),
			NewVal: bytes.Repeat([]byte{byte(i)}, 64), Deltas: []ColDelta{{Col: uint32(i), Int: int64(i)}}})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var kept, shared *Record
	var sharedVal []byte
	if _, err := Scan(path, func(r *Record) error {
		if r.LSN == 1 {
			kept, shared, sharedVal = r.Clone(), r, r.NewVal
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if shared.LSN == 1 || bytes.Equal(sharedVal, first.NewVal) {
		t.Fatal("the scan never overwrote the first record or its buffer")
	}
	if !recordsEqual(kept, first) {
		t.Fatalf("clone changed with the scan buffer:\n%+v\n%+v", kept, first)
	}
}

func TestScanMissingFile(t *testing.T) {
	res, err := Scan(filepath.Join(t.TempDir(), "nope"), func(*Record) error { return nil })
	if err != nil || res.LastLSN != 0 || res.Torn {
		t.Fatalf("missing file: %+v %v", res, err)
	}
}

func TestTornTailDetection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	w, _ := Create(path, 1, SyncNone)
	for i := 0; i < 10; i++ {
		w.Append(&Record{Type: TBegin, Txn: id.Txn(i + 1)})
	}
	w.Close()
	info, _ := os.Stat(path)
	full := info.Size()

	// Truncate at every byte boundary; scan must never error and must report
	// a LastLSN consistent with the cut.
	for cut := int64(0); cut < full; cut++ {
		data, _ := os.ReadFile(path)
		cutPath := filepath.Join(dir, "cut")
		os.WriteFile(cutPath, data[:cut], 0o644)
		count := 0
		res, err := Scan(cutPath, func(*Record) error { count++; return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if uint64(count) != res.LastLSN {
			t.Fatalf("cut %d: count %d != LastLSN %d", cut, count, res.LastLSN)
		}
		if cut < full && res.LastLSN == 10 && res.Torn {
			t.Fatalf("cut %d: all records plus torn?", cut)
		}
	}
}

func TestCorruptMiddleByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	w, _ := Create(path, 1, SyncNone)
	for i := 0; i < 5; i++ {
		w.Append(&Record{Type: TBegin, Txn: id.Txn(i + 1), Key: []byte("somekeybytes")})
	}
	w.Close()
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	res, err := Scan(path, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn {
		t.Fatal("corruption not detected")
	}
	if res.LastLSN >= 5 {
		t.Fatalf("LastLSN = %d after mid-file corruption", res.LastLSN)
	}
}

func TestRepairThenAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	w, _ := Create(path, 1, SyncNone)
	for i := 0; i < 6; i++ {
		w.Append(&Record{Type: TBegin, Txn: id.Txn(i + 1)})
	}
	w.Close()
	// Tear the tail.
	info, _ := os.Stat(path)
	os.Truncate(path, info.Size()-3)

	res, err := Repair(path, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.LastLSN != 5 {
		t.Fatalf("repair: %+v", res)
	}
	w2, err := OpenAppend(path, res.LastLSN+1, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := w2.Append(&Record{Type: TCommit, Txn: 99})
	if lsn != 6 {
		t.Fatalf("appended LSN = %d, want 6", lsn)
	}
	w2.Close()
	var last *Record
	res2, _ := Scan(path, func(r *Record) error { last = r; return nil })
	if res2.Torn || res2.LastLSN != 6 || last.Txn != 99 {
		t.Fatalf("after repair+append: %+v last=%+v", res2, last)
	}
}

func TestInjectedFaultTearsTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	w, _ := Create(path, 1, SyncNone)
	for i := 0; i < 4; i++ {
		w.Append(&Record{Type: TBegin, Txn: id.Txn(i + 1)})
	}
	if err := w.Sync(0); err != nil {
		t.Fatal(err)
	}
	w.SetFailAfter(5) // next flush tears mid-record
	w.Append(&Record{Type: TCommit, Txn: 4})
	if err := w.Sync(0); err == nil {
		t.Fatal("expected injected fault")
	}
	// Further appends fail too.
	if _, err := w.Append(&Record{Type: TBegin, Txn: 5}); err == nil {
		t.Fatal("append after failure should error")
	}
	w.f.Close()
	res, err := Repair(path, func(*Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.LastLSN != 4 || !res.Torn {
		t.Fatalf("repair after fault: %+v", res)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	w, _ := Create(path, 1, SyncNone)
	const writers = 16
	const perWriter = 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := w.Append(&Record{Type: TCommit, Txn: id.Txn(g*perWriter + i + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Sync(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	w.Close()
	count := 0
	seen := map[uint64]bool{}
	res, err := Scan(path, func(r *Record) error {
		count++
		if seen[r.LSN] {
			t.Errorf("duplicate LSN %d", r.LSN)
		}
		seen[r.LSN] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != writers*perWriter || res.Torn {
		t.Fatalf("count=%d torn=%v", count, res.Torn)
	}
	if res.LastLSN != uint64(writers*perWriter) {
		t.Fatalf("LastLSN=%d", res.LastLSN)
	}
}

func TestManifestLifecycle(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	gen, fresh, err := d.Current()
	if err != nil || !fresh || gen != 1 {
		t.Fatalf("fresh dir: gen=%d fresh=%v err=%v", gen, fresh, err)
	}
	// Create gen-1 files, commit, then advance to gen 2.
	os.WriteFile(d.LogPath(1), []byte("x"), 0o644)
	if err := d.Commit(1); err != nil {
		t.Fatal(err)
	}
	gen, fresh, err = d.Current()
	if err != nil || fresh || gen != 1 {
		t.Fatalf("after commit 1: gen=%d fresh=%v err=%v", gen, fresh, err)
	}
	os.WriteFile(d.SnapPath(2), []byte("snap"), 0o644)
	os.WriteFile(d.LogPath(2), []byte("log"), 0o644)
	if err := d.Commit(2); err != nil {
		t.Fatal(err)
	}
	gen, _, _ = d.Current()
	if gen != 2 {
		t.Fatalf("gen = %d, want 2", gen)
	}
	if _, err := os.Stat(d.LogPath(1)); !os.IsNotExist(err) {
		t.Fatal("old generation log not removed")
	}
	if _, err := os.Stat(d.SnapPath(2)); err != nil {
		t.Fatal("current snapshot removed")
	}
}

func TestManifestCorrupt(t *testing.T) {
	d := Dir{Path: t.TempDir()}
	os.WriteFile(filepath.Join(d.Path, manifestName), []byte("bogus"), 0o644)
	if _, _, err := d.Current(); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
}

func BenchmarkAppendSync(b *testing.B) {
	path := filepath.Join(b.TempDir(), "log")
	w, _ := Create(path, 1, SyncNone)
	defer w.Close()
	rec := &Record{Type: TUpdate, Txn: 1, Tree: 2, Key: []byte("key-000001"),
		OldVal: []byte("old-value-bytes"), NewVal: []byte("new-value-bytes")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lsn, _ := w.Append(rec)
		w.Sync(lsn)
	}
}
