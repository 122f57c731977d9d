package main

import (
	"fmt"
	"io"
	"sort"
)

// compareFiles judges result file b against result file a, each holding
// several untraced runs of every workload: per workload and end-to-end
// metric it prints both medians, how much b is worse than a (negative:
// better), each side's spread, the bound, and a verdict:
//
//	PASS        b's median is not worse than a's by more than the bound
//	REGRESSED   it is
//	UNRESOLVED  either side's spread is wider than the bound, so the runs
//	            cannot tell
//
// It returns 1 if anything REGRESSED, 2 if a file cannot be read.
func compareFiles(man *manifest, a, b string, w io.Writer) int {
	ra, err := readResults(a)
	if err == nil {
		var rb []result
		if rb, err = readResults(b); err == nil {
			return compareRuns(man, ra, rb, w)
		}
	}
	warnf("%v", err)
	return 2
}

func compareRuns(man *manifest, a, b []result, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-22s %-17s %13s %13s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := valuesOf(a, wl.Name, m.Name), valuesOf(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := medianF(va), medianF(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "PASS"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "UNRESOLVED"
			case worse > m.Bound:
				verdict = "REGRESSED"
				code = 1
			}
			fmt.Fprintf(w, "%-22s %-17s %13.4f %13.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return code
}

// valuesOf collects one metric of one workload over the untraced runs.
func valuesOf(runs []result, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(xs, n=4) gives
// (the driver's measure); with fewer than four values it is (max-min)/median.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, med := len(s), medianF(s)
	if n < 2 || med == 0 {
		return 0
	}
	if n < 4 {
		return (s[n-1] - s[0]) / med
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		i := int(pos)
		i = min(max(i, 1), n-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / med
}
