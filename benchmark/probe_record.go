package main

import (
	"testing"

	"repro/internal/record"
)

var sinkBytes []byte

func probeRecord(vals map[string]float64, in *probeInput) {
	rows := in.rows
	vals["record.encode_key_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBytes = record.EncodeKey(rows[i%len(rows)][:1])
		}
	})
	vals["record.encode_row_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBytes = record.EncodeRow(rows[i%len(rows)])
		}
	})
	encoded := make([][]byte, len(rows))
	for i, r := range rows {
		encoded[i] = record.EncodeRow(r)
	}
	vals["record.decode_row_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := record.DecodeRow(encoded[i%len(encoded)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
