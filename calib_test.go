package vtxn_test

import (
	"hash/crc32"
	"sort"
	"testing"
)

// calibSink keeps the calibration's result live so the compiler cannot drop
// the work.
var calibSink uint32

// BenchmarkCalibration is the machine-speed anchor of the benchmark record:
// fixed CPU-only work, a CRC32 of a fixed 64 KiB buffer and a sort.Ints of a
// fixed 4 096-int sequence, that no change to the engine can move. make bench
// times it before and after its pairs, and make bench-record writes both
// readings to the record's .env as calib_ns, so numbers from different PRs
// can be put on one scale and a box that drifted during the pairs shows.
func BenchmarkCalibration(b *testing.B) {
	buf := make([]byte, 64<<10)
	seq := make([]int, 4096)
	x := uint32(1)
	next := func() uint32 { x = x*1664525 + 1013904223; return x }
	for i := range buf {
		buf[i] = byte(next() >> 24)
	}
	for i := range seq {
		seq[i] = int(next())
	}
	work := make([]int, len(seq))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calibSink += crc32.ChecksumIEEE(buf)
		copy(work, seq)
		sort.Ints(work)
	}
}
