// Command benchmark is the repository's one benchmark: five closed-loop
// workloads driven through the root vtxn API for the end-to-end numbers, the
// leaf packages' public functions timed for the per-layer numbers, and a
// benchmark-side span trace in a separate traced pass. README.md in this
// directory describes workloads, metrics and how to read the output;
// BENCHMARK.json at the repository root declares them.
//
//	go run ./benchmark -workload hot_escrow_write -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1 -out results.jsonl     # all five, untraced then traced
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func warnf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
}

func main() {
	testing.Init() // the probes are built on testing.Benchmark
	var (
		name    = flag.String("workload", "", "workload to run (default: all five, untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced pass, printing the per-layer metrics")
		out     = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		outDir  = flag.String("dir", filepath.Join("benchmark", "out"), "directory for databases and trace files")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	os.Exit(realMain(*name, *seed, *seconds, *trace, *out, *outDir, *compare, flag.Args()))
}

func realMain(name string, seed int64, seconds, trace int, out, outDir string, compare bool, args []string) int {
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		warnf("%v", err)
		return 2
	}
	if compare {
		if len(args) != 2 {
			warnf("-compare takes two result files")
			return 2
		}
		return compareFiles(man, args[0], args[1], os.Stdout)
	}
	if seconds == 0 {
		seconds = man.RunSeconds
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		warnf("%v", err)
		return 2
	}
	type pass struct {
		w      *workload
		traced bool
	}
	var passes []pass
	if name == "" {
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				passes = append(passes, pass{w, traced})
			}
		}
	} else if w := workloadByName(name); w != nil {
		passes = []pass{{w, trace != 0}}
	} else {
		warnf("unknown workload %q", name)
		return 2
	}
	code := 0
	for _, p := range passes {
		r := newRun(p.w, planFor(p.w, seconds), seed, p.traced, outDir)
		res, err := r.measure(man)
		if err != nil {
			warnf("%v", err)
			return 1
		}
		if gates := r.errGates(); gates != nil {
			warnf("correctness gates failed:\n%v", gates)
			code = 1
		}
		res.Workload, res.Seed, res.Seconds = p.w.name, seed, seconds
		if p.traced {
			res.Trace = 1
		}
		if out != "" {
			if err := res.appendTo(out); err != nil {
				warnf("%v", err)
				return 1
			}
		}
		if name == "" {
			res.print(os.Stdout)
		} else { // the driver's form: the result is the last line
			line, _ := json.Marshal(res.driverForm())
			fmt.Println(string(line))
		}
	}
	return code
}
