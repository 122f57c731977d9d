package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifest is BENCHMARK.json: the one place metric names, units, directions
// and bounds are declared. The program computes values by name and takes
// everything else from here.
type manifest struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []manifestLoad `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run as it is printed and stored.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     int                    `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	order []string // metric names in manifest order, for printing
}

// measure executes the run (and, traced, the layer probes) and keeps the
// metrics the manifest declares for this kind of pass.
func (r *run) measure(man *manifest) (*result, error) {
	if err := r.execute(); err != nil {
		return nil, err
	}
	decls := man.EndToEnd
	if r.traced {
		decls = man.PerLayer
		r.spanLayers()
		if err := writeTrace(filepath.Join(r.outDir, "trace-"+r.w.name+".jsonl"), r.tracers); err != nil {
			return nil, err
		}
		if err := runProbes(r.vals, r.seed, r.p, r.outDir); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: len(r.gateErrs) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := r.vals[d.Name]
		if !ok {
			warnf("%s: declared metric %q was not measured", r.w.name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		res.order = append(res.order, d.Name)
	}
	return res, nil
}

func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%d trace=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Correct, res.Attempted, res.Failed)
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
}

// driverForm is the object the contract asks for as the last line of output.
func (res *result) driverForm() map[string]any {
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted,
		"failed": res.Failed, "metrics": res.Metrics}
}

func (res *result) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var all []result
	dec := json.NewDecoder(f)
	for {
		var res result
		if err := dec.Decode(&res); err == io.EOF {
			return all, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, res)
	}
}
