package main

import (
	"testing"

	"repro/internal/applier"
	"repro/internal/id"
	"repro/internal/record"
	"repro/internal/wal"
)

// probeApplier times the coalescer on batches shaped like one rollup order:
// a delta for each level of the chain, drained every 64 batches.
func probeApplier(vals map[string]float64, in *probeInput) {
	const perBatch, round = 3, 64
	batches := make([]*applier.Batch, 1024)
	for i := range batches {
		customer := in.rows[i%len(in.rows)][0].AsInt() % customers
		b := &applier.Batch{TS: uint64(i + 1), WallNs: 1}
		for level, key := range []record.Row{
			{record.Int(int64(i)), record.Int(customer)},
			{record.Int(customer)},
			{record.Str(regionOf(customer))},
		} {
			b.Groups = append(b.Groups, applier.GroupDelta{
				Tree:   id.Tree(level + 1),
				Key:    string(record.EncodeKey(key)),
				Deltas: []wal.ColDelta{{Col: 0, Int: 1}, {Col: 1, Int: 50}},
			})
		}
		batches[i] = b
	}
	c := applier.NewCoalescer()
	perAdd, _ := bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Add(batches[i%len(batches)])
			if i%round == round-1 {
				c.Take()
			}
		}
	})
	vals["applier.coalesce_ns_per_delta"] = perAdd / (perBatch * 2)
}
