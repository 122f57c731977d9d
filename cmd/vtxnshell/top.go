package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
)

// top implements the live hot-spot dashboard:
//
//	top                 auto-refreshing (ANSI) until Enter is pressed
//	top <frames> [ivl]  render that many frames then return (pipe/test mode)
//
// Each frame diffs a fresh metrics snapshot against the previous frame's into
// per-interval rates: engine throughput, the hottest groups by lock wait and
// escrow delta rate, and the per-view maintenance cost table.
func (s *shell) top(args []string) error {
	prev, prevAt := s.db.Metrics(), time.Now()
	return s.dashboard("top [frames] [interval]", args, false, func(interactive bool) {
		cur, at := s.db.Metrics(), time.Now()
		s.renderTop(prev, cur, at.Sub(prevAt), interactive)
		prev, prevAt = cur, at
	})
}

// renderTop writes one dashboard frame: what grew between prev and cur, cut
// interval apart.
func (s *shell) renderTop(prev, cur metrics.Snapshot, interval time.Duration, interactive bool) {
	sec := interval.Seconds()
	// A Close+reopen restarts the registry's counters, so the interval
	// spanning it would read negative: clamp every counter's growth at zero.
	rate := func(cur, prev int64) float64 { return float64(max(cur-prev, 0)) / sec }
	fmt.Fprintf(s.out, "vtxn top — interval %s — uptime %s%s\n",
		interval.Round(time.Millisecond),
		time.Duration(cur.Engine.UptimeNs).Round(time.Second), quitHint(interactive))
	fmt.Fprintf(s.out, "commits/s %.0f  aborts/s %.0f  wal appends/s %.0f  fold rows/s %.0f\n\n",
		rate(cur.Engine.Commits, prev.Engine.Commits), rate(cur.Engine.Aborts, prev.Engine.Aborts),
		rate(cur.WAL.Appends, prev.WAL.Appends), rate(cur.Escrow.FoldRows, prev.Escrow.FoldRows))

	fmt.Fprintf(s.out, "%-34s %10s %10s %10s\n", "HOT GROUPS by lock wait", "wait/s", "+wait", "total")
	for _, g := range hotRows(prev.Hotspots.TopWait, cur.Hotspots.TopWait, 10) {
		fmt.Fprintf(s.out, "%-34s %10.3f %10s %10s\n",
			groupLabel(g.View, g.Key), float64(g.growth)/1e9/sec,
			time.Duration(g.growth).Round(time.Millisecond), time.Duration(g.Value).Round(time.Millisecond))
	}
	fmt.Fprintf(s.out, "\n%-34s %10s %10s\n", "HOT GROUPS by escrow delta rate", "deltas/s", "total")
	for _, g := range hotRows(prev.Hotspots.TopDelta, cur.Hotspots.TopDelta, 10) {
		fmt.Fprintf(s.out, "%-34s %10.0f %10d\n", groupLabel(g.View, g.Key), float64(g.growth)/sec, g.Value)
	}

	// Per-view cost: each view's growth since prev, busiest first.
	before := make(map[uint32]metrics.ViewCostSnapshot, len(prev.Hotspots.Views))
	for _, v := range prev.Hotspots.Views {
		before[v.Tree] = v
	}
	type viewRow struct {
		metrics.ViewCostSnapshot
		rows, foldNs, walBytes int64 // growth this interval
	}
	views := make([]viewRow, len(cur.Hotspots.Views))
	for i, v := range cur.Hotspots.Views {
		p := before[v.Tree]
		views[i] = viewRow{v, max(v.RowsFolded-p.RowsFolded, 0), v.FoldNs - p.FoldNs, max(v.WALBytes-p.WALBytes, 0)}
	}
	sort.SliceStable(views, func(i, j int) bool { return views[i].rows > views[j].rows })
	fmt.Fprintf(s.out, "\n%-20s %10s %12s %10s %12s\n", "PER-VIEW COST", "rows/s", "mean fold", "wal B/s", "rows total")
	for _, v := range views {
		var meanFold time.Duration
		if v.rows > 0 && v.foldNs > 0 {
			meanFold = time.Duration(v.foldNs / v.rows)
		}
		fmt.Fprintf(s.out, "%-20s %10.0f %12s %10.0f %12d\n",
			v.View, float64(v.rows)/sec, meanFold.Round(time.Microsecond), float64(v.walBytes)/sec, v.RowsFolded)
	}
	fmt.Fprintln(s.out)
}

// hotRow is one hot group's dashboard line: its listing entry and how much
// its estimate grew this interval.
type hotRow struct {
	metrics.HotGroupSnapshot
	growth int64
}

// hotRows ranks cur's groups by growth since prev, caps the listing at n
// rows, and drops the tail rows with neither growth nor a total.
func hotRows(prev, cur []metrics.HotGroupSnapshot, n int) []hotRow {
	growth := metrics.HotGroupGrowth(prev, cur)
	rows := make([]hotRow, len(cur))
	for i, g := range cur {
		rows[i] = hotRow{g, growth[i]}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].growth > rows[j].growth })
	rows = rows[:min(len(rows), n)]
	for len(rows) > 0 && rows[len(rows)-1].growth == 0 && rows[len(rows)-1].Value == 0 {
		rows = rows[:len(rows)-1]
	}
	return rows
}

// groupLabel renders "view[key]", truncated to keep columns aligned.
func groupLabel(view, key string) string {
	l := view + "[" + key + "]"
	if len(l) > 34 {
		l = l[:31] + "..."
	}
	return l
}
