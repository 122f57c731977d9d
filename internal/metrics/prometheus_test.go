package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPromLabel covers the three escapes the Prometheus text format defines
// for label values — backslash, double quote, newline — and nothing else
// (Go's %q would emit \xNN sequences the format does not understand).
func TestPromLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`say "hi"`, `say \"hi\"`},
		{`back\slash`, `back\\slash`},
		{"two\nlines", `two\nlines`},
		{"\\\"\n", `\\\"\n`},
		{`C:\views\"q"` + "\n", `C:\\views\\\"q\"\n`},
		// Other control characters pass through untouched — the format allows
		// any UTF-8 byte except the three above.
		{"tab\there", "tab\there"},
		// Invalid UTF-8 is replaced, not emitted raw.
		{"bad\xffbyte", "bad\uFFFDbyte"},
	}
	for _, c := range cases {
		if got := promLabel(c.in); got != c.want {
			t.Errorf("promLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestExpositionEscapesLabels renders a snapshot whose view names and group
// keys carry quotes, backslashes, and newlines through every labeled series,
// and asserts the exposition stays line-oriented and parseable.
func TestExpositionEscapesLabels(t *testing.T) {
	hostile := "v\"iew\\one\ntwo"
	var s Snapshot
	s.Deferred.Views = []DeferredViewSnapshot{{Tree: 1, View: hostile, Watermark: 7}}
	s.Freshness.Views = []ViewFreshnessSnapshot{{Tree: 1, View: hostile, StalenessNs: 5}}
	s.Hotspots.TopDelta = []HotGroupSnapshot{{Tree: 1, View: hostile, Key: "k\"ey\n", Count: 1, Value: 2}}
	s.Hotspots.TopWait = []HotGroupSnapshot{{Tree: 1, View: hostile, Key: `k\ey`, Count: 1, Value: 2}}
	s.Hotspots.Views = []ViewCostSnapshot{{Tree: 1, View: hostile, RowsFolded: 3}}
	s.Scrub.Views = []ViewScrubSnapshot{{Tree: 1, View: hostile, CoverageTS: 9, Divergences: 2}}

	var sb strings.Builder
	writeExposition(&sb, s)
	text := sb.String()

	if strings.Contains(text, hostile) {
		t.Fatalf("raw label value leaked into exposition:\n%s", text)
	}
	escaped := `v\"iew\\one\ntwo`
	for _, series := range []string{
		`vtxn_view_watermark{view="` + escaped + `"} 7`,
		`vtxn_scrub_view_coverage_ts{view="` + escaped + `"} 9`,
		`vtxn_scrub_view_divergences_total{view="` + escaped + `"} 2`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing escaped series %q", series)
		}
	}
	if !strings.Contains(text, `key="k\"ey\n"`) {
		t.Errorf("hot-group key not escaped:\n%s", text)
	}
	// The escapes must keep the format line-oriented: every non-comment line
	// still splits into exactly "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current exposition")

// goldenSnapshot is a fully populated snapshot: every section carries
// distinct non-zero values, every labelled family two entries, and one view
// name a quote, a backslash and a newline.
func goldenSnapshot() Snapshot {
	hist := func(base int64) HistSnapshot {
		return HistSnapshot{Count: base, SumNs: base * 1000, MeanNs: 1000, P50Ns: 900 + base, P99Ns: 5000 + base, MaxNs: 9000 + base}
	}
	hostile := "v\"iew\\one\ntwo"
	return Snapshot{
		Engine: EngineSnapshot{Commits: 101, Aborts: 102, SysTxns: 103, Escalations: 104, UptimeNs: 105_000_000_000, SnapshotUnixNs: 106},
		Txn:    TxnSnapshot{Begin: hist(1), LockWait: hist(2), Apply: hist(3), Fold: hist(4), CommitWait: hist(5)},
		Lock: LockSnapshot{
			Shards: 2, Requests: 201, Waits: 202, Deadlocks: 203, Timeouts: 204, Collisions: 205,
			MaxQueueDepth: 206, Sweeps: 207, LastSweepNs: 208, MaxSweepNs: 209, Wait: hist(6),
			PerShard: []LockShardSnapshot{
				{Waits: 211, WaitNs: 212_000, Deadlocks: 213, Timeouts: 214, Collisions: 215, MaxQueueDepth: 216, Resources: 217},
				{Waits: 221, WaitNs: 222_000, Deadlocks: 223, Timeouts: 224, Collisions: 225, MaxQueueDepth: 226, Resources: 227},
			},
		},
		Escrow:   EscrowSnapshot{FoldBatches: 301, FoldRows: 302, FoldBatchMax: 303, FoldAborts: 304, PendingRows: 305},
		WAL:      WALSnapshot{Appends: 401, Flushes: 402, CoalescedSyncs: 403, BatchRecords: 404, BatchMax: 405, FlushActiveNs: 406, Flush: hist(7), Fsync: hist(8)},
		Ghost:    GhostSnapshot{Created: 501, Erased: 502, CleanerPasses: 503, Backlog: 504, BacklogHighWater: 505},
		Recovery: RecoverySnapshot{Gen: 601, Replayed: 602, Losers: 603, UndoneOps: 604, Torn: true, AnalysisNs: 605_000, RedoNs: 606_000, UndoNs: 607_000},
		Watchdog: WatchdogSnapshot{Detections: 701, WALStalls: 702, LockConvoys: 703, EscrowStalls: 704, GhostStalls: 705, FreshnessBreaches: 706, ScrubDivergences: 707},
		Flight:   FlightSnapshot{Enabled: true, Capacity: 801, Recorded: 802, Dumps: 803},
		Hotspots: HotspotsSnapshot{
			SketchCapacity: 64,
			TopWait: []HotGroupSnapshot{
				{Tree: 1, View: hostile, Key: `k\ey`, Value: 901_000, Count: 902, Err: 903},
				{Tree: 2, View: "totals", Key: "7", Value: 904_000, Count: 905},
			},
			TopDelta: []HotGroupSnapshot{
				{Tree: 1, View: hostile, Key: "k\"ey\n", Value: 911, Count: 912, Err: 913},
				{Tree: 2, View: "totals", Key: "8", Value: 914, Count: 915},
			},
			Views: []ViewCostSnapshot{
				{Tree: 2, View: "totals", RowsFolded: 921, FoldNs: 922_000, WALBytes: 923},
				{Tree: 1, View: hostile, RowsFolded: 924, FoldNs: 925_000, WALBytes: 926},
			},
		},
		MVCC: MVCCSnapshot{Snapshots: 1001, ActiveSnapshots: 1002, OldestSnapshotAgeNs: 1003, Watermark: 1004, Chains: 1005, ChainLenHighWater: 1006, VersionsStamped: 1007, VersionsPruned: 1008, PrunePasses: 1009},
		Deferred: DeferredSnapshot{
			PublishedBatches: 1101, PublishedGroups: 1102, ApplyRounds: 1103, RetryRounds: 1104, GroupsApplied: 1105,
			DeltasIn: 1106, DeltasCoalesced: 1107, QueueHighWater: 1108, PendingGroups: 1109, Watermark: 1110,
			LagTS: 1111, StalenessNs: 1112, Apply: hist(9),
			Views: []DeferredViewSnapshot{{Tree: 1, View: hostile, Watermark: 1113}, {Tree: 2, View: "totals", Watermark: 1114}},
		},
		Cascade: CascadeSnapshot{Enqueued: 1201, Coalesced: 1202, Folds: 1203, DeferredOut: 1204, LevelFolds: []int64{1205, 1206, 1207, 1208}},
		Freshness: FreshnessSnapshot{
			SLONs: 1301,
			Views: []ViewFreshnessSnapshot{
				{Tree: 1, View: hostile, Strategy: "deferred", StalenessNs: 1302_000, CommitToVisible: hist(10)},
				{Tree: 2, View: "totals", Strategy: "escrow", CommitToVisible: hist(11)},
			},
		},
		Scrub: ScrubSnapshot{
			Enabled: true, Cycles: 1401, Slices: 1402, RowsVerified: 1403, Divergences: 1404,
			SnapshotRetries: 1406, LastFullPassUnix: 1407, CycleDur: hist(12),
			Views: []ViewScrubSnapshot{
				{Tree: 1, View: hostile, Passes: 1411, RowsVerified: 1412, Divergences: 1413, CoverageTS: 1414, LastPassUnixNs: 1415},
				{Tree: 2, View: "totals", Passes: 1421, RowsVerified: 1422, Divergences: 1423, CoverageTS: 1424, LastPassUnixNs: 1425},
			},
		},
	}
}

// TestExpositionGolden renders goldenSnapshot and compares the Prometheus
// text byte for byte with testdata/exposition.golden (go test -update
// rewrites the file).
func TestExpositionGolden(t *testing.T) {
	var sb strings.Builder
	writeExposition(&sb, goldenSnapshot())
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("exposition differs from %s:\n%s", path, got)
	}
}
