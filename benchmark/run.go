package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	vtxn "repro"
)

// plan is how long each phase of a run lasts. planFor derives it from
// -seconds; the smoke test builds smaller ones.
type plan struct {
	rows      int           // preloaded accounts
	setups    int           // set-ups timed; setup_s is their median
	warmup    time.Duration // excluded from every metric
	window    time.Duration // the measured write window (timed workloads)
	readPhase time.Duration // quiesced read phase, where no reader runs in the window
	tailTx    int           // single-client transactions between checkpoint and crash
	probe     time.Duration // the short windows of the traced pass's scenario probes
}

// intervals is how many equal parts a window is cut into; a rate is the
// median of the parts' rates. A traced window is cut twice as fine and
// records spans in every second part, so one window yields both a traced and
// an untraced rate.
const intervals = 20

func planFor(w *workload, seconds int) plan {
	s := time.Duration(seconds) * time.Second
	p := plan{rows: 20000, setups: 5, probe: s / 10}
	if w.timed {
		p.warmup, p.window, p.tailTx = s/5, s, 2000*seconds
	} else {
		p.tailTx = 15000 * seconds
	}
	if w.readers == 0 {
		p.readPhase = s * 15 / 100
	}
	return p
}

// run is one pass of one workload and everything it measured.
type run struct {
	w      *workload
	p      plan
	seed   int64
	traced bool
	outDir string
	opts   vtxn.Options
	dir    string // the database directory
	base   time.Time

	db      *vtxn.DB
	writers []*client
	reader  *client
	tracers []*tracer

	vals      map[string]float64
	attempted int64
	failed    int64
	gateErrs  []error
}

func newRun(w *workload, p plan, seed int64, traced bool, outDir string) *run {
	return &run{w: w, p: p, seed: seed, traced: traced, outDir: outDir, opts: deployed(),
		dir:  filepath.Join(outDir, fmt.Sprintf("db-%s-%d", w.name, os.Getpid())),
		base: time.Now(), vals: map[string]float64{}}
}

// gate records a failed correctness check; each counts as one failed operation.
func (r *run) gate(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.gateErrs = append(r.gateErrs, fmt.Errorf("%s: %s: %w", r.w.name, what, err))
	}
}

// phase is what one measured stretch of closed-loop work yields.
type phase struct {
	rates       []float64 // per untraced interval, transactions/s
	tracedRates []float64 // per traced interval (write phases only)
	lat         []int64   // sampled latencies, ns
	heap        []float64 // live heap at each interval's end, MiB
	done        int64
	allTx       int64 // transactions of every kind in the phase, reads included
	elapsed     time.Duration
	walBytes    int64
	allocBytes  uint64     // heap bytes the whole process allocated
	before      metricsDoc // engine counters at the start and end (traced runs)
	after       metricsDoc
}

func (ph *phase) rate() float64 { return medianF(ph.rates) }

// execute runs the whole pass: set-up, the measured write phase, checkpoint
// and tail, crash, recovery and the durability check, the read phase, and a
// last reopen from a checkpoint.
func (r *run) execute() error {
	defer removeAll(r.dir)

	if err := r.setUp(); err != nil {
		return err
	}
	defer func() { r.db.Close() }()

	var wr, rd *phase
	if r.w.timed {
		if r.w.readers > 0 {
			wr, rd = r.drive(r.writers, []*client{r.reader}, r.p.warmup, r.p.window)
		} else {
			wr, _ = r.drive(r.writers, nil, r.p.warmup, r.p.window)
		}
		r.afterWrites()
		if err := r.db.Checkpoint(); err != nil {
			return err
		}
	}
	tail, err := r.tail()
	if err != nil {
		return err
	}
	if !r.w.timed {
		wr = tail
		r.afterWrites()
	}
	r.reportWrites(wr)
	if err := r.recover(); err != nil {
		return err
	}
	if rd == nil {
		rd = r.readOnly()
	}
	r.reportReads(rd)
	for _, c := range r.clients() {
		r.attempted += c.done.Load() + c.failed.Load()
		r.failed += c.failed.Load()
		if c.lastErr != nil {
			r.gateErrs = append(r.gateErrs, fmt.Errorf("%s: a client's last error: %w", r.w.name, c.lastErr))
		}
	}
	return r.reopenFromCheckpoint()
}

// setUp times open + DDL + preload p.setups times, keeping the last database.
func (r *run) setUp() error {
	var times []float64
	var gens []generator
	for i := 0; i < r.p.setups; i++ {
		if r.db != nil {
			if err := r.db.Close(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(r.dir); err != nil {
			return err
		}
		runtime.GC() // every timed section starts from a collected heap
		t0 := time.Now()
		var err error
		if r.db, gens, err = r.w.setup(r.dir, r.opts, r.seed, r.p.rows); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.vals["setup_s"] = medianF(times)
	ctl := &control{}
	for _, g := range gens {
		r.writers = append(r.writers, &client{db: r.db, w: r.w, ctl: ctl, gen: g, rows: r.p.rows})
	}
	r.reader = &client{db: r.db, w: r.w, ctl: ctl, rows: r.p.rows,
		rng: rand.New(rand.NewSource(r.seed*1000003 + 1000))}
	for _, c := range r.clients() {
		c.tr.base = r.base
		r.tracers = append(r.tracers, &c.tr)
	}
	return nil
}

// clients are the writers followed by the reader.
func (r *run) clients() []*client {
	return append(append([]*client(nil), r.writers...), r.reader)
}

// setDB points every client at a reopened database.
func (r *run) setDB(db *vtxn.DB) {
	r.db = db
	for _, c := range r.clients() {
		c.db = db
	}
}

// drive runs the clients closed-loop, zero think time, for warmup + window,
// and measures the window. writers and readers are measured separately; either
// may be empty.
func (r *run) drive(writers, readers []*client, warmup, window time.Duration) (wr, rd *phase) {
	ctl := r.reader.ctl
	ctl.stop.Store(false)
	var wg sync.WaitGroup
	for _, c := range writers {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !ctl.stop.Load() {
				c.writeOne()
			}
		}(c)
	}
	for _, c := range readers {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !ctl.stop.Load() {
				c.readOne()
			}
		}(c)
	}
	time.Sleep(warmup)

	sum := func(cs []*client) (n int64) {
		for _, c := range cs {
			n += c.done.Load()
		}
		return n
	}
	for _, c := range append(append([]*client(nil), writers...), readers...) {
		c.lat = c.lat[:0] // the clients only append while measuring is set
	}
	wr, rd = &phase{}, &phase{}
	if r.traced {
		wr.before = readMetrics(r.db)
	}
	wal0 := walBytes(r.dir)
	parts := intervals
	if r.traced {
		parts *= 2
	}
	alloc0 := allocatedBytes()
	start := time.Now()
	w0, r0, t0 := sum(writers), sum(readers), start
	wStart, rStart := w0, r0
	ctl.measuring.Store(true)
	for i := 0; i < parts; i++ {
		tracing := r.traced && i%2 == 1
		ctl.tracing.Store(tracing)
		time.Sleep(time.Until(start.Add(window * time.Duration(i+1) / time.Duration(parts))))
		w1, r1, t1 := sum(writers), sum(readers), time.Now()
		wr.heap = append(wr.heap, liveHeapMiB())
		dt := t1.Sub(t0).Seconds()
		if tracing {
			wr.tracedRates = append(wr.tracedRates, float64(w1-w0)/dt)
		} else {
			wr.rates = append(wr.rates, float64(w1-w0)/dt)
			rd.rates = append(rd.rates, float64(r1-r0)/dt)
		}
		w0, r0, t0 = w1, r1, t1
	}
	ctl.measuring.Store(false)
	ctl.tracing.Store(false)
	elapsed := time.Since(start)
	ctl.stop.Store(true)
	wg.Wait()

	wr.done, rd.done = w0-wStart, r0-rStart
	wr.allTx = wr.done + rd.done
	wr.allocBytes = allocatedBytes() - alloc0
	wr.elapsed = elapsed
	wr.walBytes = walBytes(r.dir) - wal0
	if r.traced {
		wr.after = readMetrics(r.db)
	}
	for _, c := range writers {
		wr.lat = append(wr.lat, c.lat...)
	}
	for _, c := range readers {
		rd.lat = append(rd.lat, c.lat...)
	}
	return wr, rd
}

// readOnly is the read phase of workloads with no reader in their window: one
// closed-loop reader on the recovered, quiesced database. Running it after the
// restart gives the reader the same state every run: before it, what a
// snapshot scan costs follows the number of version chains the window left
// behind (it walks every chain in the store), which differs from run to run.
func (r *run) readOnly() *phase {
	r.db.PruneVersions()
	runtime.GC()
	_, rd := r.drive(nil, []*client{r.reader}, r.p.readPhase/5, r.p.readPhase)
	return rd
}

// tail runs p.tailTx transactions on writer 0 alone, keeping a model of the
// base table, so the log that recovery replays has a fixed length whatever the
// window's throughput was. For crash_recover it is the measured write phase.
func (r *run) tail() (*phase, error) {
	c := r.writers[0]
	mod, err := r.w.readModel(r.db)
	if err != nil {
		return nil, err
	}
	c.mod = mod
	ph := &phase{}
	measured := !r.w.timed
	parts := intervals
	if r.traced && measured {
		parts *= 2
		ph.before = readMetrics(r.db)
	}
	c.lat = c.lat[:0]
	wal0, alloc0 := walBytes(r.dir), allocatedBytes()
	start := time.Now()
	c.ctl.measuring.Store(measured)
	for i := 0; i < parts; i++ {
		tracing := r.traced && measured && i%2 == 1
		c.ctl.tracing.Store(tracing)
		n, t0 := r.p.tailTx/parts, time.Now()
		for j := 0; j < n; j++ {
			c.writeOne()
		}
		rate := float64(n) / time.Since(t0).Seconds()
		ph.heap = append(ph.heap, liveHeapMiB())
		if tracing {
			ph.tracedRates = append(ph.tracedRates, rate)
		} else {
			ph.rates = append(ph.rates, rate)
		}
		ph.done += int64(n)
	}
	c.ctl.measuring.Store(false)
	c.ctl.tracing.Store(false)
	ph.elapsed, ph.allTx = time.Since(start), ph.done
	ph.walBytes, ph.allocBytes = walBytes(r.dir)-wal0, allocatedBytes()-alloc0
	if ph.before != nil {
		ph.after = readMetrics(r.db)
	}
	ph.lat = c.lat
	return ph, nil
}

// afterWrites runs once the measured write phase has stopped: the consistency
// gate (which also waits for the deferred applier to drain), then the heap at
// rest, after a prune and a collection.
func (r *run) afterWrites() {
	r.gate("CheckConsistency", r.db.CheckConsistency())
	r.db.PruneVersions()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.vals["client.heap_rest_mb"] = float64(ms.HeapAlloc) / (1 << 20)
}

// allocatedBytes is the cumulative heap allocation of the whole process.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// liveHeapMiB is the heap the last completed garbage collection found live.
// Under load collections run many times a second, so sampling it at interval
// ends follows the live heap through the window without forcing a collection.
func liveHeapMiB() float64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

func (r *run) reportWrites(wr *phase) {
	r.vals["commit_tx_per_s"] = wr.rate()
	r.vals["commit_p50_us"] = quantile(wr.lat, 0.5) / 1e3
	r.vals["wal_bytes_per_tx"] = float64(wr.walBytes) / float64(wr.done)
	r.vals["alloc_bytes_per_tx"] = float64(wr.allocBytes) / float64(wr.allTx)
	if !r.traced {
		return
	}
	r.vals["client.commit_p99_us"] = quantile(wr.lat, 0.99) / 1e3
	r.vals["client.commit_samples"] = float64(len(wr.lat))
	lo, hi := wr.rates[0], wr.rates[0]
	for _, x := range wr.rates {
		lo, hi = min(lo, x), max(hi, x)
	}
	r.vals["client.tx_per_s_spread"] = (hi - lo) / wr.rate()
	r.vals["client.trace_overhead_share"] = 1 - medianF(wr.tracedRates)/wr.rate()
	r.vals["client.live_heap_mb"] = medianF(wr.heap)
	engineLayers(r.vals, wr)
}

func (r *run) reportReads(rd *phase) {
	r.vals["read_tx_per_s"] = rd.rate()
	r.vals["read_p50_us"] = quantile(rd.lat, 0.5) / 1e3
	if r.traced {
		r.vals["client.read_p99_us"] = quantile(rd.lat, 0.99) / 1e3
		r.vals["client.read_samples"] = float64(len(rd.lat))
	}
}

// recoveries is how many times the same log is recovered; recover_s is the
// median. Open leaves the log it replayed in place, so crashing again without
// writing replays the same records.
const recoveries = 3

// reopen crashes the database with the process-crash model (bytes flushed to
// the OS survive) and times Open; with check set it then compares every row
// with the model of acknowledged writes and runs CheckConsistency.
func (r *run) reopen(what string, check bool) (float64, error) {
	r.db.Crash(true)
	runtime.GC()
	t0 := time.Now()
	db, err := vtxn.Open(r.dir, r.opts)
	if err != nil {
		return 0, fmt.Errorf("%s: %s: %w", r.w.name, what, err)
	}
	took := time.Since(t0).Seconds()
	r.setDB(db)
	if check {
		stored, err := r.w.readModel(db)
		if err == nil {
			err = r.writers[0].mod.diff(stored)
		}
		r.gate(what+": acknowledged rows", err)
		r.gate(what+": CheckConsistency", db.CheckConsistency())
	}
	return took, nil
}

// recover is the durability half of every run: crash, time Open, check; the
// same log is recovered `recoveries` times.
func (r *run) recover() error {
	var times []float64
	for i := 0; i < recoveries; i++ {
		took, err := r.reopen("reopen after crash", i == 0)
		if err != nil {
			return err
		}
		times = append(times, took)
		if i == 0 && r.traced {
			recoveryLayers(r.vals, readMetrics(r.db))
		}
	}
	r.vals["recover_s"] = medianF(times)
	return nil
}

// reopenFromCheckpoint checkpoints, crashes and reopens once more, this time
// from the snapshot, with the same checks.
func (r *run) reopenFromCheckpoint() error {
	t0 := time.Now()
	if err := r.db.Checkpoint(); err != nil {
		return err
	}
	r.vals["snapshot.checkpoint_s"] = time.Since(t0).Seconds()
	took, err := r.reopen("reopen after checkpoint", true)
	r.vals["snapshot.reopen_s"] = took
	return err
}

// walBytes is the size of the log files in the database directory.
func walBytes(dir string) int64 {
	logs, _ := filepath.Glob(filepath.Join(dir, "log-*"))
	var n int64
	for _, p := range logs {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// errGates is what a run with failed correctness gates returns.
func (r *run) errGates() error { return errors.Join(r.gateErrs...) }
