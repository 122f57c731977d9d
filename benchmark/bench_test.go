package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func loadTestManifest(t *testing.T) *manifest {
	t.Helper()
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// smokePlan is a run small enough for tier-1: one-second windows on a
// 4 000-row table, 5 000 transactions before crash_recover's crash.
func smokePlan(w *workload) plan {
	p := plan{rows: 4000, setups: 1, readPhase: 200 * time.Millisecond, tailTx: 5000, probe: 100 * time.Millisecond}
	if w.timed {
		p.warmup, p.window, p.tailTx = 100*time.Millisecond, time.Second, 1000
	}
	if w.readers > 0 {
		p.readPhase = 0
	}
	return p
}

func TestSameSeedSameStream(t *testing.T) {
	const n = 100_000
	hash := func(w *workload, seed int64) uint64 {
		gens := make([]generator, w.writers)
		for c := range gens {
			gens[c] = w.newGen(seed, c, 20000)
		}
		return streamHash(gens, n)
	}
	for _, w := range workloads {
		if a, b := hash(w, 7), hash(w, 7); a != b {
			t.Errorf("%s: seed 7 gave two op streams (%x, %x)", w.name, a, b)
		}
		if a, b := hash(w, 7), hash(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
	}
}

func TestManifestDeclaresTheWorkloads(t *testing.T) {
	man := loadTestManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why == "" {
			t.Errorf("workload %d: manifest %+v, benchmark %q", i, man.Workloads[i], w.name)
		}
	}
	for _, m := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs all five workloads, untraced, through every correctness
// gate: CheckConsistency after the writes and after each reopen, the scan
// invariant, and the model-against-table durability check.
func TestSmoke(t *testing.T) {
	man := loadTestManifest(t)
	for _, w := range workloads {
		r := newRun(w, smokePlan(w), 3, false, t.TempDir())
		res, err := r.measure(man)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := r.errGates(); err != nil || !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", w.name, res.Correct, res.Failed, err)
		}
		for _, m := range man.EndToEnd {
			if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %v %q", w.name, m.Name, v.Value, v.Unit)
			}
		}
	}
}

// TestEveryMetricIsDeclared runs one traced pass and checks that what the
// benchmark measures and what BENCHMARK.json declares are the same names.
func TestEveryMetricIsDeclared(t *testing.T) {
	man := loadTestManifest(t)
	w := workloadByName("rollup_deferred_write")
	r := newRun(w, smokePlan(w), 3, true, t.TempDir())
	res, err := r.measure(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.errGates(); err != nil {
		t.Error(err)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricDecl(nil), man.EndToEnd...), man.PerLayer...) {
		declared[m.Name] = true
		if _, ok := r.vals[m.Name]; !ok {
			t.Errorf("declared metric %q is not measured", m.Name)
		}
	}
	for name := range r.vals {
		if !declared[name] {
			t.Errorf("measured metric %q is not declared in BENCHMARK.json", name)
		}
	}
	if len(res.Metrics) != len(man.PerLayer) {
		t.Errorf("traced pass printed %d metrics, BENCHMARK.json declares %d per-layer", len(res.Metrics), len(man.PerLayer))
	}
	for _, name := range []string{"client.get_ns", "client.update_ns", "client.insert_ns", "client.delete_ns",
		"client.commit_ns", "client.read_get_ns", "applier.visible_p50_us", "recovery.redo_s"} {
		if r.vals[name] <= 0 {
			t.Errorf("%s = %v on %s", name, r.vals[name], w.name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := loadTestManifest(t)
	runs := func(scale float64, jitter float64) []result {
		var rs []result
		for i := 0; i < 5; i++ {
			f := scale * (1 + jitter*float64(i-2))
			rs = append(rs, result{Workload: workloads[0].name, Metrics: map[string]metricValue{
				"commit_tx_per_s": {Value: 30000 / f}, "commit_p50_us": {Value: 25 * f}}})
		}
		return rs
	}
	for _, tc := range []struct {
		name     string
		b        []result
		code     int
		verdicts string
	}{
		{"same", runs(1, 0.01), 0, "PASS"},
		{"half as fast", runs(2, 0.01), 1, "REGRESSED"},
		{"noisy", runs(1, 0.4), 0, "UNRESOLVED"},
	} {
		var out bytes.Buffer
		if code := compareRuns(man, runs(1, 0.01), tc.b, &out); code != tc.code {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if n := strings.Count(out.String(), tc.verdicts); n != 2 {
			t.Errorf("%s: %d %s verdicts, want 2\n%s", tc.name, n, tc.verdicts, out.String())
		}
	}
}
