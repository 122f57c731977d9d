package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

// probeWAL appends update records shaped like a transfer's, alone and
// followed by the commit-time flush to the OS (SyncNone, as deployed).
func probeWAL(vals map[string]float64, in *probeInput) error {
	recs := make([]*wal.Record, 1024)
	for i := range recs {
		r := in.rows[i%len(in.rows)]
		recs[i] = &wal.Record{Type: wal.TUpdate, Txn: id.Txn(i + 1), Tree: 1,
			Key: record.EncodeKey(r[:1]), OldVal: record.EncodeRow(r[1:]), NewVal: record.EncodeRow(r[1:])}
	}
	path := filepath.Join(in.outDir, "probe-wal.log")
	defer os.Remove(path)
	var err error
	run := func(sync bool) float64 {
		ns, _ := bench(func(b *testing.B) {
			w, cerr := wal.Create(path, 1, wal.SyncNone)
			if cerr != nil {
				err = cerr
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lsn, aerr := w.Append(recs[i%len(recs)])
				if aerr == nil && sync {
					aerr = w.Sync(lsn)
				}
				if aerr != nil {
					b.Fatal(aerr)
				}
			}
			b.StopTimer()
			if cerr := w.Close(); cerr != nil {
				err = cerr
			}
		})
		return ns
	}
	vals["wal.append_ns"] = run(false)
	vals["wal.append_sync_ns"] = run(true)
	return err
}
