package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	vtxn "repro"
	"repro/internal/metrics"
)

func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"insert t 1 'alice smith' 2": {"insert", "t", "1", "'alice smith'", "2"},
		"  spaced   out  ":           {"spaced", "out"},
		"":                           nil,
		"quote 'with  spaces' mixed": {"quote", "'with  spaces'", "mixed"},
	}
	for in, want := range cases {
		if got := tokenize(in); !reflect.DeepEqual(got, want) {
			t.Errorf("tokenize(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseRow(t *testing.T) {
	row, err := parseRow([]string{"42", "-7", "2.5", "'hi'", "true", "false", "null"})
	if err != nil {
		t.Fatal(err)
	}
	want := vtxn.Row{
		vtxn.Int(42), vtxn.Int(-7), vtxn.Float(2.5),
		vtxn.Str("hi"), vtxn.Bool(true), vtxn.Bool(false), vtxn.Null(),
	}
	if len(row) != len(want) {
		t.Fatalf("row = %v", row)
	}
	for i := range want {
		if row[i].Kind() != want[i].Kind() {
			t.Errorf("col %d kind = %v, want %v", i, row[i].Kind(), want[i].Kind())
		}
	}
	if _, err := parseRow([]string{"notanumber"}); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseRow([]string{"1.2.3"}); err == nil {
		t.Error("bad float accepted")
	}
}

func TestParseKind(t *testing.T) {
	good := map[string]vtxn.Kind{
		"int": vtxn.KindInt64, "bigint": vtxn.KindInt64,
		"float": vtxn.KindFloat64, "double": vtxn.KindFloat64,
		"string": vtxn.KindString, "varchar": vtxn.KindString,
		"bool": vtxn.KindBool, "bytes": vtxn.KindBytes,
	}
	for in, want := range good {
		got, err := parseKind(in)
		if err != nil || got != want {
			t.Errorf("parseKind(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseKind("blob"); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestShellEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sh := &shell{db: db, out: os.Stdout}
	script := []string{
		"create table accts id:int branch:int balance:int pk id",
		"create view totals on accts group branch count sum:balance",
		"insert accts 1 7 100",
		"insert accts 2 7 50",
		"insert accts 3 8 25",
		"delete accts 3",
		"get accts 1",
		"scan accts",
		"view totals",
		"describe totals",
		"stats",
		"ghosts",
		"check",
		"checkpoint",
	}
	for _, line := range script {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// Error paths.
	for _, bad := range []string{
		"nosuchcommand",
		"insert",                        // missing args
		"insert accts xyz",              // bad value
		"get accts",                     // missing pk
		"create table bad x",            // bad column spec
		"create view v on nope group x", // missing table
		"view nosuchview",
		"describe nosuchview",
		"refresh nosuchview",
	} {
		if err := sh.exec(bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
	// Help and empty lines are fine.
	if err := sh.exec("help"); err != nil {
		t.Fatal(err)
	}
}

// TestShellTop drives the dashboard in framed (non-interactive) mode and
// checks the hot group surfaces with its decoded key.
func TestShellTop(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	sh := &shell{db: db, out: &buf}
	setup := []string{
		"create table accts id:int branch:int balance:int pk id",
		"create view totals on accts group branch count sum:balance",
	}
	for _, line := range setup {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	// Skew escrow deltas onto branch 7.
	for i := 0; i < 20; i++ {
		branch := 7
		if i%10 == 9 {
			branch = 8
		}
		if err := sh.exec(fmt.Sprintf("insert accts %d %d 100", i+1, branch)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.exec("top 2 20ms"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vtxn top",
		"HOT GROUPS by escrow delta rate",
		"PER-VIEW COST",
		"totals[7]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top output missing %q:\n%s", want, out)
		}
	}
	// Framed mode must not emit ANSI clear sequences (pipe-safe).
	if strings.Contains(out, "\x1b[") {
		t.Error("framed top emitted ANSI escapes")
	}
	// Argument validation.
	for _, bad := range []string{"top 0", "top x", "top 1 notadur"} {
		if err := sh.exec(bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
}

// TestRenderTopRates checks one frame's interval arithmetic: counter rates,
// hot groups ranked by growth (a group new to the listing grows from zero),
// wait growth in waiter-seconds per second, and the per-view cost diff.
func TestRenderTopRates(t *testing.T) {
	var prev, cur metrics.Snapshot
	prev.Engine.Commits = 100
	prev.Hotspots.TopDelta = []metrics.HotGroupSnapshot{{Tree: 3, View: "v", Key: "a", Value: 50}}
	prev.Hotspots.Views = []metrics.ViewCostSnapshot{{Tree: 3, View: "v", RowsFolded: 10, FoldNs: 10000, WALBytes: 100}}
	cur.Engine.Commits = 300
	cur.WAL.Appends = 50
	cur.Hotspots.TopDelta = []metrics.HotGroupSnapshot{
		{Tree: 3, View: "v", Key: "b", Value: 20}, // new this interval
		{Tree: 3, View: "v", Key: "a", Value: 150},
	}
	cur.Hotspots.TopWait = []metrics.HotGroupSnapshot{{Tree: 3, View: "v", Key: "a", Value: 2e9}}
	cur.Hotspots.Views = []metrics.ViewCostSnapshot{{Tree: 3, View: "v", RowsFolded: 30, FoldNs: 50000, WALBytes: 300}}

	var buf bytes.Buffer
	(&shell{out: &buf}).renderTop(prev, cur, 2*time.Second, false)
	out := buf.String()
	for _, want := range []string{
		"vtxn top — interval 2s",
		"commits/s 100  aborts/s 0  wal appends/s 25  fold rows/s 0",
		// 2e9 wait-ns over a 2s interval is one waiter-second per second.
		fmt.Sprintf("%-34s %10.3f %10s %10s", "v[a]", 1.0, "2s", "2s"),
		fmt.Sprintf("%-34s %10.0f %10d\n%-34s %10.0f %10d", "v[a]", 50.0, 150, "v[b]", 10.0, 20),
		fmt.Sprintf("%-20s %10.0f %12s %10.0f %12d", "v", 10.0, "2µs", 100.0, 30),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top frame missing %q:\n%s", want, out)
		}
	}
}

// TestRenderTopClampsCounterReset pins the restart behavior: a Close+reopen
// restarts every counter from zero, and top's frame spanning the restart
// must report zero rates, never negative ones.
func TestRenderTopClampsCounterReset(t *testing.T) {
	var before, after metrics.Snapshot
	before.Engine.Commits, before.Engine.Aborts = 500, 40
	before.WAL.Appends, before.Escrow.FoldRows = 900, 300
	before.Hotspots.TopDelta = []metrics.HotGroupSnapshot{{Tree: 1, View: "totals", Key: "7", Value: 50}}
	before.Hotspots.Views = []metrics.ViewCostSnapshot{{Tree: 1, View: "totals", RowsFolded: 300, WALBytes: 9000}}
	after.Engine.Commits = 10
	after.Hotspots.TopDelta = []metrics.HotGroupSnapshot{{Tree: 1, View: "totals", Key: "7", Value: 3}}
	after.Hotspots.Views = []metrics.ViewCostSnapshot{{Tree: 1, View: "totals", RowsFolded: 3, WALBytes: 90}}

	var buf bytes.Buffer
	(&shell{out: &buf}).renderTop(before, after, time.Second, false)
	out := buf.String()
	if !strings.Contains(out, "commits/s 0  aborts/s 0  wal appends/s 0  fold rows/s 0") {
		t.Errorf("engine rates across a counter reset are not zero:\n%s", out)
	}
	if neg := regexp.MustCompile(`\s-\d`).FindString(out); neg != "" {
		t.Errorf("negative rate %q across a counter reset:\n%s", neg, out)
	}
}

// TestShellLag drives the freshness dashboard in framed mode and checks the
// per-view staleness table lists both maintenance strategies.
func TestShellLag(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	sh := &shell{db: db, out: &buf}
	setup := []string{
		"create table accts id:int branch:int balance:int pk id",
		"create view totals on accts group branch count sum:balance",
		"create view totals_d on accts group branch count sum:balance strategy deferred",
		"insert accts 1 7 100",
		"insert accts 2 8 50",
	}
	for _, line := range setup {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if err := sh.exec("lag 2 20ms"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vtxn lag",
		"STRATEGY",
		"totals",
		"totals_d",
		"escrow",
		"deferred",
		"watermark",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lag output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("framed lag emitted ANSI escapes")
	}
	for _, bad := range []string{"lag 0", "lag x", "lag 1 notadur"} {
		if err := sh.exec(bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
}

// TestShellScrub drives the verification dashboard in framed mode plus the
// on-demand full pass.
func TestShellScrub(t *testing.T) {
	dir := t.TempDir()
	db, err := vtxn.Open(dir, vtxn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var buf bytes.Buffer
	sh := &shell{db: db, out: &buf}
	setup := []string{
		"create table accts id:int branch:int balance:int pk id",
		"create view totals on accts group branch count sum:balance",
		"insert accts 1 7 100",
		"insert accts 2 8 50",
	}
	for _, line := range setup {
		if err := sh.exec(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	if err := sh.exec("scrub full"); err != nil {
		t.Fatal(err)
	}
	if err := sh.exec("scrub 2 20ms"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ok: full pass clean",
		"vtxn scrub",
		"rows verified",
		"coverage ts",
		"totals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrub output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DIVERG") {
		t.Errorf("healthy engine shows divergences:\n%s", out)
	}
	if strings.Contains(out, "\x1b[") {
		t.Error("framed scrub emitted ANSI escapes")
	}
	for _, bad := range []string{"scrub 0", "scrub x", "scrub 1 notadur"} {
		if err := sh.exec(bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
}
