package metrics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/id"
)

func TestSketchNilAndZeroValue(t *testing.T) {
	var nilSketch *Sketch
	nilSketch.Add(HotKey{Tree: 1, Key: "k"}, 1, 1)
	if got := nilSketch.Top(5); got != nil {
		t.Fatalf("nil sketch Top = %v, want nil", got)
	}
	if nilSketch.Len() != 0 || nilSketch.Cap() != 0 {
		t.Fatalf("nil sketch Len/Cap = %d/%d, want 0/0", nilSketch.Len(), nilSketch.Cap())
	}
	var zero Sketch
	zero.Add(HotKey{Tree: 1, Key: "k"}, 1, 1)
	if got := zero.Top(5); got != nil {
		t.Fatalf("zero sketch Top = %v, want nil", got)
	}
}

func TestSketchBasicCounts(t *testing.T) {
	s := NewSketch(64)
	a := HotKey{Tree: 7, Key: "alpha"}
	b := HotKey{Tree: 7, Key: "beta"}
	for i := 0; i < 10; i++ {
		s.Add(a, 5, 1)
	}
	s.Add(b, 3, 2)
	top := s.Top(10)
	if len(top) != 2 {
		t.Fatalf("Top len = %d, want 2", len(top))
	}
	if top[0].Key != a || top[0].Val != 50 || top[0].Cnt != 10 || top[0].Err != 0 {
		t.Fatalf("top[0] = %+v, want key %v val 50 cnt 10 err 0", top[0], a)
	}
	if top[1].Key != b || top[1].Val != 3 || top[1].Cnt != 2 {
		t.Fatalf("top[1] = %+v, want key %v val 3 cnt 2", top[1], b)
	}
}

// TestSketchEviction fills one bucket past capacity and checks Space-Saving
// admission: the newcomer inherits the evicted minimum's value as estimate
// floor and error bound.
func TestSketchEviction(t *testing.T) {
	s := NewSketch(sketchWays) // one bucket: every key collides
	for i := 0; i < sketchWays; i++ {
		k := HotKey{Tree: 1, Key: fmt.Sprintf("g%d", i)}
		s.Add(k, int64(10*(i+1)), 1) // values 10..80, min is g0 at 10
	}
	if s.Len() != sketchWays {
		t.Fatalf("Len = %d, want %d", s.Len(), sketchWays)
	}
	newcomer := HotKey{Tree: 1, Key: "fresh"}
	s.Add(newcomer, 4, 1)
	if s.Len() != sketchWays {
		t.Fatalf("Len after evict = %d, want %d", s.Len(), sketchWays)
	}
	top := s.Top(sketchWays)
	var got *HotStat
	for i := range top {
		if top[i].Key == newcomer {
			got = &top[i]
		}
		if top[i].Key == (HotKey{Tree: 1, Key: "g0"}) {
			t.Fatalf("evicted minimum g0 still tracked: %+v", top[i])
		}
	}
	if got == nil {
		t.Fatalf("newcomer not admitted; top = %+v", top)
	}
	// est = evicted min (10) + own delta (4); err = evicted min.
	if got.Val != 14 || got.Err != 10 {
		t.Fatalf("newcomer stat = %+v, want Val 14 Err 10", *got)
	}
	if got.Val-got.Err > 4 {
		t.Fatalf("error bound violated: est %d - err %d > true 4", got.Val, got.Err)
	}
}

// TestSketchZipfAccuracy drives a Zipf(1.1)-skewed stream of group keys
// through a default-size sketch and checks the two Space-Saving guarantees
// that make the attribution trustworthy: the true hottest group is
// recovered as top-1, and every reported estimate brackets the true count
// (true ≤ est, est − err ≤ true).
func TestSketchZipfAccuracy(t *testing.T) {
	const (
		draws  = 200000
		groups = 10000
	)
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.1, 1, groups-1)
	s := NewSketch(0) // default capacity
	truth := make(map[HotKey]int64, groups)
	for i := 0; i < draws; i++ {
		k := HotKey{Tree: 3, Key: fmt.Sprintf("grp-%d", zipf.Uint64())}
		truth[k]++
		s.Add(k, 1, 1)
	}
	var hottest HotKey
	var hottestN int64
	for k, n := range truth {
		if n > hottestN {
			hottest, hottestN = k, n
		}
	}
	top := s.Top(10)
	if len(top) == 0 {
		t.Fatal("empty Top after skewed stream")
	}
	if top[0].Key != hottest {
		t.Fatalf("top-1 = %v (est %d), want true hottest %v (true %d)",
			top[0].Key, top[0].Val, hottest, hottestN)
	}
	for _, st := range top {
		tr := truth[st.Key]
		if st.Val < tr {
			t.Fatalf("underestimate for %v: est %d < true %d", st.Key, st.Val, tr)
		}
		if st.Val-st.Err > tr {
			t.Fatalf("error bound violated for %v: est %d − err %d > true %d",
				st.Key, st.Val, st.Err, tr)
		}
	}
}

// TestSketchConcurrentHammer exercises the lock-free hot path and the
// mutex-guarded admit path from 8 goroutines under -race. The hot key is
// updated by every goroutine; cold keys churn the eviction path.
func TestSketchConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		perG    = 20000
	)
	s := NewSketch(64)
	hot := HotKey{Tree: 9, Key: "hot-group"}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				if rng.Intn(2) == 0 {
					s.Add(hot, 3, 1)
				} else {
					k := HotKey{Tree: 9, Key: fmt.Sprintf("cold-%d", rng.Intn(500))}
					s.Add(k, 1, 1)
				}
				if i%4096 == 0 {
					s.Top(4) // concurrent reads race against evicts
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	top := s.Top(1)
	if len(top) != 1 || top[0].Key != hot {
		t.Fatalf("hot key lost under concurrency: top = %+v", top)
	}
	// The hot key is never evicted (it dominates every bucket minimum), so
	// its counters must be exact: torn attribution is only permitted for
	// keys that lose their slot.
	wantVal := int64(0)
	// Each goroutine flips a fair coin per iteration; count exactly by
	// replaying the per-goroutine RNG decision stream.
	for g := 0; g < workers; g++ {
		rng := rand.New(rand.NewSource(int64(g + 1)))
		for i := 0; i < perG; i++ {
			if rng.Intn(2) == 0 {
				wantVal += 3
			} else {
				rng.Intn(500)
			}
		}
	}
	if top[0].Val != wantVal {
		t.Fatalf("hot key val = %d, want exact %d", top[0].Val, wantVal)
	}
}

// TestViewRecords checks the per-view record lifecycle: Sync adds a record
// for each view and keeps its counts, Get never creates one, and a view left
// out of the next Sync loses its record.
func TestViewRecords(t *testing.T) {
	var vs Views
	if vs.Get(5) != nil {
		t.Fatal("Get created a record before Sync")
	}
	vs.Sync([]id.Tree{5, 6})
	c := vs.Get(5)
	if c == nil || vs.Get(6) == nil {
		t.Fatal("Sync did not add a record per view")
	}
	c.FoldRows.Add(3)
	if vs.Get(7) != nil {
		t.Fatal("Get created a record for a tree that holds no view")
	}
	vs.Sync([]id.Tree{5, 7})
	if got := vs.Get(5); got != c || got.FoldRows.Load() != 3 {
		t.Fatal("Sync replaced the record of a view it kept")
	}
	if vs.Get(6) != nil || vs.Get(7) == nil {
		t.Fatal("Sync did not drop view 6 and add view 7")
	}
	var nilVS *Views
	if nilVS.Get(1) != nil {
		t.Fatal("nil Views Get should return nil")
	}
}

// TestViewRecordsConcurrent accounts to records while Sync keeps replacing
// the map; a view that stays in the catalog loses no update.
func TestViewRecordsConcurrent(t *testing.T) {
	var vs Views
	vs.Sync([]id.Tree{1, 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if v := vs.Get(id.Tree(1 + i%3)); v != nil {
					v.FoldRows.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		vs.Sync([]id.Tree{1, 2, id.Tree(3 + i%2)})
	}
	wg.Wait()
	want := int64(0)
	for i := 0; i < 2000; i++ {
		if i%3 != 2 {
			want++
		}
	}
	if got := vs.Get(1).FoldRows.Load() + vs.Get(2).FoldRows.Load(); got != 8*want {
		t.Fatalf("lost updates: views 1 and 2 hold %d fold rows, want %d", got, 8*want)
	}
}
