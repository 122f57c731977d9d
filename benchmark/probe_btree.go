package main

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/record"
)

// probeBtree times a tree of the preloaded table's size (20 000 entries).
func probeBtree(vals map[string]float64, in *probeInput) {
	tree := btree.New()
	var keys, rowVals [][]byte
	for _, r := range in.rows {
		if len(keys) == cap(keys) && len(keys) >= 20000 {
			break
		}
		keys = append(keys, record.EncodeKey(r[:1]))
		rowVals = append(rowVals, record.EncodeRow(r[1:]))
		tree.Put(keys[len(keys)-1], rowVals[len(rowVals)-1], false)
	}
	n := len(keys)
	vals["btree.put_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Put(keys[i*7919%n], rowVals[i%n], false)
		}
	})
	vals["btree.get_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkBytes, _, _ = tree.Get(keys[i*7919%n])
		}
	})
	perScan, _ := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Scan(nil, nil, false, func(it btree.Item) bool { sinkBytes = it.Val; return true })
		}
	})
	vals["btree.scan_ns_per_row"] = perScan / float64(tree.Len())
}
