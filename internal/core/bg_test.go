package core

import (
	"bytes"
	"encoding/json"
	"maps"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// labelledGoroutines counts the live goroutines per vtxn profiler label, read
// from the goroutine profile.
func labelledGoroutines(t *testing.T) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	count := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if n, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(n)
		} else if set, ok := strings.CutPrefix(line, "# labels: "); ok {
			var labels map[string]string
			if err := json.Unmarshal([]byte(set), &labels); err != nil {
				t.Fatalf("goroutine labels %q: %v", set, err)
			}
			if name, ok := labels["vtxn"]; ok {
				out[name] += count
			}
		}
	}
	return out
}

// started reports whether every name has a labelled goroutine.
func started(running map[string]int, names []string) bool {
	for _, name := range names {
		if running[name] == 0 {
			return false
		}
	}
	return true
}

// TestRunnerGoroutines: with every background task on, each runs on exactly
// one goroutine labelled vtxn=<name>, no other labelled goroutine runs (the
// lock manager starts none), and none survives Close or Crash.
func TestRunnerGoroutines(t *testing.T) {
	names := []string{"deferred-applier", "mvcc-pruner", "ghost-cleaner", "scrubber", "watchdog"}
	for _, tc := range []struct {
		name string
		stop func(*DB)
	}{
		{"close", func(db *DB) { db.Close() }},
		{"crash", func(db *DB) { db.Crash(false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := labelledGoroutines(t)
			db, err := Open(t.TempDir(), Options{GhostCleanInterval: 10 * time.Millisecond, WatchdogInterval: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// A goroutine carries its label once it has started running.
			var running map[string]int
			for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
				running = labelledGoroutines(t)
				for name, n := range before {
					running[name] -= n
				}
				if started(running, names) || time.Now().After(deadline) {
					break
				}
			}
			for _, name := range names {
				if running[name] != 1 {
					t.Errorf("vtxn=%s: %d goroutines for one database, want 1", name, running[name])
				}
				delete(running, name)
			}
			for name, n := range running {
				if n != 0 {
					t.Errorf("vtxn=%s: %d goroutines no task owns", name, n)
				}
			}
			tc.stop(db)
			for deadline := time.Now().Add(time.Second); ; {
				after := labelledGoroutines(t)
				if maps.Equal(after, before) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("labelled goroutines after %s = %v, want %v as before Open", tc.name, after, before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
