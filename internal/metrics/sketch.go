package metrics

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/id"
)

// HotKey identifies one attributable hot spot: a key within a tree. For
// escrow and lock attribution the tree is an indexed view and the key is the
// encoded group key of one aggregate row.
type HotKey struct {
	Tree id.Tree
	Key  string
}

// HotStat is one entry returned by Sketch.Top: an estimated value (and
// update count) for a key, plus the Space-Saving overestimation bound.
// The true total for Key is in [Val-Err, Val].
type HotStat struct {
	Key HotKey
	// Val is the estimated accumulated value (e.g. wait-ns or delta rows).
	Val int64
	// Cnt is the estimated number of updates folded into Val.
	Cnt int64
	// Err is the Space-Saving error bound: the value the slot held when the
	// key was (last) admitted, inherited from whichever key it evicted.
	Err int64
}

// sketchSlot is one tracked key. The hash gate (h) is nonzero iff the slot
// is occupied; readers and hot-path writers verify h, then the full key
// pointer, before touching the counters, so a concurrent evict at worst
// loses one update's worth of attribution — never corrupts a counter of an
// unrelated key by more than that update.
type sketchSlot struct {
	h   atomic.Uint64
	val atomic.Int64
	cnt atomic.Int64
	err atomic.Int64
	key atomic.Pointer[HotKey]
}

// sketchWays is the bucket associativity: a key hashes to one bucket and may
// occupy any of its ways. Eviction (Space-Saving "replace the minimum")
// considers only that bucket, which keeps the slow path O(ways) and bounds
// the per-bucket error independently.
const sketchWays = 8

// DefaultSketchSlots is the default tracked-key capacity. 128 slots track
// the top ~tens of groups with tight error under Zipfian skew while keeping
// the whole sketch in a few cache lines per bucket.
const DefaultSketchSlots = 128

// Sketch is a concurrent Space-Saving (top-K heavy hitter) summary over
// HotKeys, adapted to a set-associative table so the hot path is lock-free:
//
//   - Updates to an already-tracked key are a hash probe over one bucket's
//     ways followed by two atomic adds — no locks, no allocation.
//   - Only admitting a new key (insert or evict-the-bucket-minimum) takes a
//     mutex, and under the skewed workloads the sketch exists to explain,
//     misses are rare by construction.
//
// Space-Saving guarantees est ≥ true and est − err ≤ true for every tracked
// key; any key whose true total exceeds the evicted minimum stays tracked.
// The set-associative restriction weakens the classical bound (the minimum
// is per-bucket, not global) in exchange for bounded probe cost; the error
// each entry actually absorbed is reported per-entry in HotStat.Err, so
// consumers can see the bound rather than trust an a-priori one.
//
// The zero value and nil are both valid, inert sketches: Add drops, Top
// returns nil.
type Sketch struct {
	mu    sync.Mutex // serializes insert/evict only
	slots []sketchSlot
}

// NewSketch returns a sketch tracking up to slots keys (rounded up to a
// multiple of the bucket width; <=0 selects DefaultSketchSlots).
func NewSketch(slots int) *Sketch {
	if slots <= 0 {
		slots = DefaultSketchSlots
	}
	if r := slots % sketchWays; r != 0 {
		slots += sketchWays - r
	}
	return &Sketch{slots: make([]sketchSlot, slots)}
}

// hashHot is FNV-1a over the tree ID and key bytes, pinned nonzero so 0 can
// gate empty slots.
func hashHot(tree id.Tree, key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	t := uint32(tree)
	for i := 0; i < 4; i++ {
		h ^= uint64(byte(t >> (8 * i)))
		h *= prime64
	}
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Add folds one observation on key of tree into the sketch: val is the
// quantity being attributed (wait-ns, delta rows), cnt the number of
// underlying events. It allocates only to admit a key the sketch does not
// track yet. Safe for concurrent use; nil-safe.
func (s *Sketch) Add(tree id.Tree, key []byte, val, cnt int64) {
	if s == nil || len(s.slots) == 0 {
		return
	}
	h := hashHot(tree, key)
	base := int(h%uint64(len(s.slots)/sketchWays)) * sketchWays
	bucket := s.slots[base : base+sketchWays]

	// Hot path: the key is already tracked somewhere in its bucket.
	for i := range bucket {
		sl := &bucket[i]
		if sl.h.Load() != h {
			continue
		}
		if kp := sl.key.Load(); kp != nil && kp.Tree == tree && kp.Key == string(key) {
			sl.val.Add(val)
			sl.cnt.Add(cnt)
			return
		}
	}

	// Slow path: admit the key under the mutex.
	s.mu.Lock()
	defer s.mu.Unlock()

	// Re-probe: another goroutine may have admitted it while we waited.
	var empty, min *sketchSlot
	for i := range bucket {
		sl := &bucket[i]
		hv := sl.h.Load()
		if hv == 0 {
			if empty == nil {
				empty = sl
			}
			continue
		}
		if hv == h {
			if kp := sl.key.Load(); kp != nil && kp.Tree == tree && kp.Key == string(key) {
				sl.val.Add(val)
				sl.cnt.Add(cnt)
				return
			}
		}
		if min == nil || sl.val.Load() < min.val.Load() {
			min = sl
		}
	}
	kc := HotKey{Tree: tree, Key: string(key)}
	if empty != nil {
		empty.key.Store(&kc)
		empty.val.Store(val)
		empty.cnt.Store(cnt)
		empty.err.Store(0)
		empty.h.Store(h) // publish last: gates hot-path readers
		return
	}
	// Space-Saving eviction: the new key inherits the bucket minimum's value
	// as its estimate floor and error bound.
	old := min.val.Load()
	min.h.Store(0) // unpublish first so hot-path adds to the old key miss
	min.key.Store(&kc)
	min.val.Store(old + val)
	min.cnt.Store(cnt)
	min.err.Store(old)
	min.h.Store(h)
}

// Top returns up to n tracked keys ordered by descending estimated value.
// It reads the table without taking the mutex: a torn read during a
// concurrent evict can at worst mis-report one slot for one call. Nil-safe.
func (s *Sketch) Top(n int) []HotStat {
	if s == nil || len(s.slots) == 0 || n <= 0 {
		return nil
	}
	out := make([]HotStat, 0, n)
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.h.Load() == 0 {
			continue
		}
		kp := sl.key.Load()
		if kp == nil {
			continue
		}
		out = append(out, HotStat{
			Key: *kp,
			Val: sl.val.Load(),
			Cnt: sl.cnt.Load(),
			Err: sl.err.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Val != out[j].Val {
			return out[i].Val > out[j].Val
		}
		if out[i].Key.Tree != out[j].Key.Tree {
			return out[i].Key.Tree < out[j].Key.Tree
		}
		return out[i].Key.Key < out[j].Key.Key
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Len reports how many keys the sketch currently tracks. Nil-safe.
func (s *Sketch) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	for i := range s.slots {
		if s.slots[i].h.Load() != 0 {
			n++
		}
	}
	return n
}

// Cap reports the tracked-key capacity. Nil-safe.
func (s *Sketch) Cap() int {
	if s == nil {
		return 0
	}
	return len(s.slots)
}
