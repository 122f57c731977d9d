package main

import (
	"sync"
	"time"
)

// visibleEvery: writer 0 blocks on the top view's watermark after every
// visibleEvery-th of its commits.
const visibleEvery = 32

// probeDeferred measures freshness of the deferred tier under load: the
// rollup workload's two writers for a short window, one of them waiting every
// visibleEvery-th commit until region_totals shows it, then the time the
// applier needs to drain once the writers stop.
func probeDeferred(vals map[string]float64, in *probeInput, p plan) error {
	r := newRun(workloadByName("rollup_deferred_write"), plan{setups: 1}, in.seed, false, in.outDir)
	defer removeAll(r.dir)
	if err := r.setUp(); err != nil {
		return err
	}
	defer func() { r.db.Close() }()
	var visible []int64
	var waitErr error
	stop := time.Now().Add(p.probe)
	var wg sync.WaitGroup
	for i, c := range r.writers {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(stop) {
				c.writeOne()
				if i == 0 && c.n%visibleEvery == 0 {
					t0 := time.Now()
					if err := r.db.WaitForViewWatermark(bg, viewRegions, c.lastTS); err != nil {
						waitErr = err
						return
					}
					visible = append(visible, int64(time.Since(t0)))
				}
			}
		}(i, c)
	}
	wg.Wait()
	if waitErr != nil {
		return waitErr
	}
	t0 := time.Now()
	if err := r.db.WaitForViewWatermark(bg, viewRegions, max(r.writers[0].lastTS, r.writers[1].lastTS)); err != nil {
		return err
	}
	vals["applier.drain_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	vals["applier.visible_p50_us"] = quantile(visible, 0.5) / 1e3
	vals["applier.visible_p90_ms"] = quantile(visible, 0.9) / 1e6
	return nil
}
