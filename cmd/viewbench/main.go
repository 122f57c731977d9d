// Command viewbench runs the reconstructed evaluation (DESIGN.md §4) and
// prints each experiment's table/series — the figures of EXPERIMENTS.md.
// Performance tracking across changes is the benchmark's job
// (go run ./benchmark, see benchmark/README.md), not this command's.
//
// Usage:
//
//	viewbench -list
//	viewbench -exp F2            # one experiment, full scale
//	viewbench -exp all -quick    # every experiment at ~1/8 scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "experiment ID (T1,F2,...) or comma list or 'all'")
		quick     = flag.Bool("quick", false, "run at reduced scale")
		list      = flag.Bool("list", false, "list experiments and exit")
		traceSlow = flag.Duration("trace-slow", 0, "log engine trace events slower than this to stderr (0 disables)")
	)
	flag.Parse()

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return
	}
	if *traceSlow > 0 {
		bench.Tracer = metrics.NewSlowLogger(os.Stderr, *traceSlow, "viewbench ")
	}
	scale := bench.Full
	if *quick {
		scale = bench.Quick
	}

	var runners []bench.Runner
	if *expFlag == "all" {
		runners = bench.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			r, err := bench.Find(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		fmt.Printf("running %s (%s)...\n", r.ID, r.Name)
		start := time.Now()
		tb, err := r.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Printf("%s(took %s)\n\n", tb, time.Since(start).Round(time.Millisecond))
	}
}
