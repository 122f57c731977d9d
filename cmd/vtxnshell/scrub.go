package main

import (
	"context"
	"fmt"
	"time"
)

// scrubCmd implements the online-verification views:
//
//	scrub                 live dashboard (ANSI) until Enter is pressed
//	scrub <frames> [ivl]  render that many frames then return (pipe/test mode)
//	scrub full            run one unpaced full verification pass now
//
// The dashboard shows the background scrubber's pace and coverage; `scrub
// full` is DB.ScrubNow — every view verified end to end on the spot, with
// divergences (if any — each already traced and flight-dumped) counted back.
func (s *shell) scrubCmd(args []string) error {
	if len(args) > 0 && args[0] == "full" {
		start := time.Now()
		n, err := s.db.ScrubNow(context.Background())
		if err != nil {
			return err
		}
		if n > 0 {
			fmt.Fprintf(s.out, "DIVERGED: %d view rows disagree with recompute (%s) — see flightrec\n",
				n, time.Since(start).Round(time.Millisecond))
			return nil
		}
		fmt.Fprintf(s.out, "ok: full pass clean in %s\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	return s.dashboard("scrub [frames] [interval] | scrub full", args, true, s.renderScrub)
}

// renderScrub writes one scrubber frame from a fresh metrics snapshot.
func (s *shell) renderScrub(interactive bool) {
	snap := s.db.Metrics()
	sc := snap.Scrub
	state := "on"
	if !sc.Enabled {
		state = "off (scrub full still works)"
	}
	last := "never"
	if sc.LastFullPassUnix > 0 {
		last = time.Since(time.Unix(sc.LastFullPassUnix, 0)).Round(time.Second).String() + " ago"
	}
	fmt.Fprintf(s.out, "vtxn scrub — background %s — cycles %d — last full pass %s%s\n",
		state, sc.Cycles, last, quitHint(interactive))
	fmt.Fprintf(s.out, "slices %d  rows verified %d  snapshot retries %d  cycle p50 %s p99 %s\n",
		sc.Slices, sc.RowsVerified, sc.SnapshotRetries,
		time.Duration(sc.CycleDur.P50Ns).Round(time.Millisecond),
		time.Duration(sc.CycleDur.P99Ns).Round(time.Millisecond))
	if sc.Divergences > 0 {
		fmt.Fprintf(s.out, "DIVERGENCES %d — stored view rows disagree with recompute; see flightrec\n", sc.Divergences)
	}
	fmt.Fprintln(s.out)

	fmt.Fprintf(s.out, "%-20s %8s %12s %12s %12s %12s\n",
		"VIEW", "passes", "rows", "coverage ts", "diverged", "last pass")
	for _, v := range sc.Views {
		lp := "-"
		if v.LastPassUnixNs > 0 {
			lp = time.Since(time.Unix(0, v.LastPassUnixNs)).Round(time.Millisecond).String() + " ago"
		}
		fmt.Fprintf(s.out, "%-20s %8d %12d %12d %12d %12s\n",
			v.View, v.Passes, v.RowsVerified, v.CoverageTS, v.Divergences, lp)
	}
	if len(sc.Views) == 0 {
		fmt.Fprintln(s.out, "(no maintained views)")
	}
	fmt.Fprintln(s.out)
}
