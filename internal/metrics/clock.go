package metrics

import "time"

// Clock is one database's timebase: the wall time read once when the clock
// is made (at Open) plus the monotonic time since. A reading is nanoseconds
// since that moment and costs one monotonic clock read, not time.Now's wall
// and monotonic pair; WallNs turns a reading into the UnixNano an event
// carries. Every emitter of a DB reads the same Clock (the transaction path,
// the WAL flush, the snapshot registry and the flight recorder), so every
// WallNs in a flight record and every age the watchdog diffs share one
// timebase, and a step of the system's wall clock moves none of them.
type Clock struct {
	base   time.Time // carries the monotonic reading readings are taken from
	wallNs int64
}

// NewClock returns a clock whose readings start at zero now.
func NewClock() *Clock {
	now := time.Now()
	return &Clock{base: now, wallNs: now.UnixNano()}
}

// Now reads the monotonic clock: nanoseconds since the clock was made.
func (c *Clock) Now() int64 { return int64(time.Since(c.base)) }

// WallNs is the wall time (UnixNano) of the reading at.
func (c *Clock) WallNs(at int64) int64 { return c.wallNs + at }
