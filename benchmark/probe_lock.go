package main

import (
	"testing"
	"time"

	"repro/internal/id"
	"repro/internal/lock"
	"repro/internal/record"
)

func probeLock(vals map[string]float64, in *probeInput) {
	m := lock.NewManager()
	defer m.Close()
	const tree = id.Tree(1)
	res := make([]lock.Resource, len(in.rows))
	for i, r := range in.rows {
		res[i] = lock.KeyResource(tree, record.EncodeKey(r[:1]))
	}
	// One X lock on a distinct key, then ReleaseAll: a base-row write.
	vals["lock.acquire_release_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			txn := id.Txn(i + 1)
			if err := m.Lock(txn, res[i%len(res)], lock.ModeX, time.Second); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(txn)
		}
	})
	// An E lock on one hot key that another transaction already holds in E:
	// the escrow view's hot group.
	hot := lock.KeyResource(id.Tree(2), record.EncodeKey(in.rows[0][1:2]))
	const holder = id.Txn(1 << 40)
	if err := m.Lock(holder, hot, lock.ModeE, time.Second); err != nil {
		warnf("lock probe: %v", err)
		return
	}
	defer m.ReleaseAll(holder)
	vals["lock.escrow_acquire_ns"], _ = bench(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			txn := holder + id.Txn(i+1)
			if err := m.Lock(txn, hot, lock.ModeE, time.Second); err != nil {
				b.Fatal(err)
			}
			m.ReleaseAll(txn)
		}
	})
}
