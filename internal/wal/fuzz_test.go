package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeRecord: arbitrary bytes must never panic the record decoder,
// the scanner's aliasing decode into a reused record must agree with
// DecodeRecord field for field, and any record that decodes must survive a
// re-encode/re-decode trip.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range sampleRecords() {
		r.LSN = 7
		f.Add(r.Encode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		reused := Record{LSN: 99, Type: TUpdate, Sys: true, Key: []byte("stale"),
			Deltas: make([]ColDelta, 3, 8), UndoneLSN: 5, Pin: 1}
		if aliasErr := reused.decode(data); (aliasErr == nil) != (err == nil) {
			t.Fatalf("DecodeRecord error %v, aliasing decode error %v", err, aliasErr)
		}
		if err != nil {
			return
		}
		if !recordsEqual(&reused, rec) || (reused.Key == nil) != (rec.Key == nil) ||
			(reused.OldVal == nil) != (rec.OldVal == nil) || (reused.NewVal == nil) != (rec.NewVal == nil) {
			t.Fatalf("aliasing decode differs\n%+v\n%+v", &reused, rec)
		}
		again, err := DecodeRecord(rec.Encode(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !recordsEqual(rec, again) {
			t.Fatalf("round trip changed\n%+v\n%+v", rec, again)
		}
	})
}

// FuzzScanLog: a log file of arbitrary bytes must scan without panicking,
// and the scan must never report more good bytes than the file holds.
func FuzzScanLog(f *testing.F) {
	// A valid two-record log as one seed.
	dir, _ := os.MkdirTemp("", "walfuzzseed")
	defer os.RemoveAll(dir)
	p := filepath.Join(dir, "log")
	w, _ := Create(p, 1, SyncNone)
	w.Append(&Record{Type: TBegin, Txn: 1})
	w.Append(&Record{Type: TCommit, Txn: 1})
	w.Close()
	seed, _ := os.ReadFile(p)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		count := 0
		res, err := Scan(path, func(*Record) error { count++; return nil })
		if err != nil {
			t.Fatalf("scan errored on arbitrary bytes: %v", err)
		}
		if res.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d > file size %d", res.GoodBytes, len(data))
		}
		if int64(count) > 0 && res.LastLSN == 0 {
			t.Fatal("records scanned but LastLSN is zero")
		}
	})
}
