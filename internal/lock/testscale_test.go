package lock

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// testScale stretches the suite's settle sleeps and short timeouts. The
// timings below are tuned for an idle machine; under the race detector or a
// loaded CI runner a goroutine can need several times longer to park in a
// lock queue, which turned these tests flaky. One multiplier fixes them all
// without slowing ordinary local runs. LOCK_TEST_SCALE overrides it.
var testScale = func() time.Duration {
	if s := os.Getenv("LOCK_TEST_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n)
		}
	}
	if raceEnabled {
		return 4
	}
	return 1
}()

// settle sleeps d scaled: long enough for goroutines started before the call
// to reach their blocking point.
func settle(d time.Duration) { time.Sleep(d * testScale) }

// scaled stretches a deliberately short timeout for slow environments.
func scaled(d time.Duration) time.Duration { return d * testScale }

// waitBlocked returns once m has counted n blocked requests: a request is
// counted while its shard is still held, so it is queued by then.
func waitBlocked(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(scaled(5 * time.Second))
	for m.Snapshot().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests blocked", m.Snapshot().Waits, n)
		}
		runtime.Gosched()
	}
}
