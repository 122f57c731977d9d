package lock

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/id"
	"repro/internal/metrics"
)

// Resource names a lockable object: a whole tree (Key == "") or one key
// within a tree.
type Resource struct {
	Tree id.Tree
	Key  string
}

// TreeResource returns the whole-tree resource (for intention and escalated
// locks).
func TreeResource(t id.Tree) Resource { return Resource{Tree: t} }

// KeyResource returns the resource for one key of a tree.
func KeyResource(t id.Tree, key []byte) Resource {
	return Resource{Tree: t, Key: string(key)}
}

// String renders the resource for errors and traces.
func (r Resource) String() string {
	if r.Key == "" {
		return r.Tree.String()
	}
	return fmt.Sprintf("%s[%x]", r.Tree, r.Key)
}

// Errors returned by Lock.
var (
	// ErrDeadlock aborts the requester chosen as deadlock victim.
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrTimeout reports that the lock wait exceeded its timeout.
	ErrTimeout = errors.New("lock: wait timed out")
)

// Stats are cumulative lock-manager counters, read with Snapshot.
type Stats struct {
	Requests  int64 // total Lock calls
	Waits     int64 // calls that blocked
	Deadlocks int64 // requests aborted as deadlock victims
	Timeouts  int64 // requests aborted by timeout

	// Shards is the stripe count the manager was built with.
	Shards int
	// Collisions counts shard-mutex acquisitions that found the mutex
	// already held (TryLock misses) — the striping-efficiency signal.
	Collisions int64
	// MaxQueueDepth is the deepest wait queue any single resource reached.
	MaxQueueDepth int64
	// Sweeps counts background deadlock-detector passes; LastSweep and
	// MaxSweep report their duration.
	Sweeps    int64
	LastSweep time.Duration
	MaxSweep  time.Duration
	// PerShard breaks collisions/queue depth down by stripe.
	PerShard []ShardStats
}

// ShardStats are one stripe's counters.
type ShardStats struct {
	Collisions    int64
	MaxQueueDepth int64
	Resources     int // current lock-table entries
}

// request is one waiting lock request.
type request struct {
	txn     id.Txn
	mode    Mode // target mode (already the sup for conversions)
	convert bool // the txn already holds the resource in a weaker mode
	res     Resource
	granted chan error
}

// lockState is the queue and grant table for one resource.
type lockState struct {
	granted map[id.Txn]Mode
	queue   []*request
}

// shard is one stripe of the lock manager: a private mutex, lock table,
// reverse index, and waits-for edges for the resources that hash to it.
// Uncontended acquires on resources in different shards never touch a
// shared mutex.
type shard struct {
	mu     sync.Mutex
	table  map[Resource]*lockState
	held   map[id.Txn]map[Resource]Mode // reverse index for ReleaseAll
	waits  map[id.Txn]map[id.Txn]bool   // waits-for edges of waiters queued here
	wanted map[id.Txn]*request          // the single request a txn may be blocked on

	// Free lists keep the uncontended acquire/release cycle allocation-free:
	// emptied lockStates, held maps, and edge sets are recycled instead of
	// handed to the garbage collector.
	lsFree   []*lockState
	heldFree []map[Resource]Mode
	edgeFree []map[id.Txn]bool

	collisions atomic.Int64
	maxQueue   int // guarded by mu
}

// lock acquires the shard mutex, counting contended acquisitions.
func (s *shard) lock() {
	if !s.mu.TryLock() {
		s.collisions.Add(1)
		s.mu.Lock()
	}
}

func newShard() *shard {
	return &shard{
		table:  make(map[Resource]*lockState),
		held:   make(map[id.Txn]map[Resource]Mode),
		waits:  make(map[id.Txn]map[id.Txn]bool),
		wanted: make(map[id.Txn]*request),
	}
}

// Manager is the lock manager. One instance serves a whole database. The
// lock table is striped: resources hash to one of N shards, so independent
// resources never contend. Deadlock detection runs in a background detector
// goroutine (see detector.go), off the acquire path.
type Manager struct {
	shards []*shard
	mask   uint32

	requests  atomic.Int64
	waitCount atomic.Int64
	deadlocks atomic.Int64
	timeouts  atomic.Int64

	sweeps    atomic.Int64
	lastSweep atomic.Int64 // ns
	maxSweep  atomic.Int64 // ns

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// met and tracer receive wait-time attribution and lock-wait events; both
	// may be nil (standalone managers) — observation paths are nil-safe.
	met    *metrics.LockMetrics
	tracer metrics.Tracer

	// DefaultTimeout bounds waits when Lock is called with timeout 0.
	DefaultTimeout time.Duration
}

// Options configure a Manager; the zero value selects defaults.
type Options struct {
	// Shards is the stripe count, rounded up to a power of two.
	// 0 scales with GOMAXPROCS.
	Shards int
	// DefaultTimeout bounds waits when Lock gets timeout 0 (default 10s).
	DefaultTimeout time.Duration
	// Metrics, when set, receives per-shard wait-time attribution and the
	// global wait-latency histogram. Only blocked acquisitions observe it.
	Metrics *metrics.LockMetrics
	// Tracer, when set, receives an EventLockWait for every blocked
	// acquisition when it resolves (granted, deadlock, timeout, or cancel).
	Tracer metrics.Tracer
}

// NewManager returns an empty lock manager with default options.
func NewManager() *Manager { return NewManagerOpts(Options{}) }

// NewManagerOpts returns an empty lock manager configured by o.
func NewManagerOpts(o Options) *Manager {
	n := o.Shards
	if n <= 0 {
		n = defaultShards()
	}
	n = nextPow2(n)
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 10 * time.Second
	}
	m := &Manager{
		shards:         make([]*shard, n),
		mask:           uint32(n - 1),
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		met:            o.Metrics,
		tracer:         o.Tracer,
		DefaultTimeout: o.DefaultTimeout,
	}
	if m.met != nil {
		m.met.InitShards(n)
	}
	for i := range m.shards {
		m.shards[i] = newShard()
	}
	go m.detectorLoop()
	return m
}

// defaultShards scales the stripe count with available parallelism.
func defaultShards() int {
	n := runtime.GOMAXPROCS(0) * 4
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	return n
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Close stops the background deadlock detector. Pending Lock calls are not
// interrupted; callers should drain transactions first.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stop)
		<-m.done
	})
}

// shardOf hashes res to its stripe (FNV-1a over tree id and key bytes).
func (m *Manager) shardOf(res Resource) *shard {
	return m.shards[m.shardIndex(res)]
}

func (m *Manager) shardIndex(res Resource) uint32 {
	h := uint32(2166136261)
	t := uint32(res.Tree)
	h = (h ^ (t & 0xff)) * 16777619
	h = (h ^ ((t >> 8) & 0xff)) * 16777619
	h = (h ^ ((t >> 16) & 0xff)) * 16777619
	h = (h ^ (t >> 24)) * 16777619
	for i := 0; i < len(res.Key); i++ {
		h = (h ^ uint32(res.Key[i])) * 16777619
	}
	return h & m.mask
}

// Snapshot returns the cumulative counters.
func (m *Manager) Snapshot() Stats {
	st := Stats{
		Requests:  m.requests.Load(),
		Waits:     m.waitCount.Load(),
		Deadlocks: m.deadlocks.Load(),
		Timeouts:  m.timeouts.Load(),
		Shards:    len(m.shards),
		Sweeps:    m.sweeps.Load(),
		LastSweep: time.Duration(m.lastSweep.Load()),
		MaxSweep:  time.Duration(m.maxSweep.Load()),
		PerShard:  make([]ShardStats, len(m.shards)),
	}
	for i, s := range m.shards {
		s.lock()
		ss := ShardStats{
			Collisions:    s.collisions.Load(),
			MaxQueueDepth: int64(s.maxQueue),
			Resources:     len(s.table),
		}
		s.mu.Unlock()
		st.PerShard[i] = ss
		st.Collisions += ss.Collisions
		if ss.MaxQueueDepth > st.MaxQueueDepth {
			st.MaxQueueDepth = ss.MaxQueueDepth
		}
	}
	return st
}

// Lock acquires res in mode for txn, blocking until granted, deadlock, or
// timeout (0 means DefaultTimeout). Re-requests in covered modes return
// immediately; stronger modes convert. Conversions wait ahead of new
// requests. Deadlock victims are chosen by the background detector (the
// youngest transaction in a cycle aborts).
func (m *Manager) Lock(txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	return m.LockCtx(context.Background(), txn, res, mode, timeout)
}

// LockCtx is Lock with a context: cancelling ctx aborts an in-flight wait
// with a wrapped ctx.Err(). The fast (uncontended) path never checks ctx.
func (m *Manager) LockCtx(ctx context.Context, txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = m.DefaultTimeout
	}
	m.requests.Add(1)

	idx := m.shardIndex(res)
	s := m.shards[idx]
	s.lock()
	ls := s.table[res]
	if ls == nil {
		ls = s.newLockState()
		s.table[res] = ls
	}
	cur := ls.granted[txn]
	target := Sup(cur, mode)
	if cur != ModeNone && target == cur {
		s.mu.Unlock()
		return nil // already covered
	}
	convert := cur != ModeNone
	if grantable(ls, txn, target) && (convert || len(ls.queue) == 0) {
		s.grant(ls, txn, res, target)
		if convert {
			// The stronger mode may block waiters the old mode admitted;
			// their waits-for edges must reflect it for the detector.
			for _, w := range ls.queue {
				if w.txn != txn && !Compatible(target, w.mode) {
					s.waits[w.txn][txn] = true
				}
			}
		}
		s.mu.Unlock()
		return nil
	}

	// Must wait.
	req := &request{txn: txn, mode: target, convert: convert, res: res, granted: make(chan error, 1)}
	pos := len(ls.queue)
	if convert {
		// Conversions queue ahead of non-conversions.
		pos = 0
		for pos < len(ls.queue) && ls.queue[pos].convert {
			pos++
		}
	}
	ls.queue = append(ls.queue, nil)
	copy(ls.queue[pos+1:], ls.queue[pos:])
	ls.queue[pos] = req
	if d := len(ls.queue); d > s.maxQueue {
		s.maxQueue = d
	}
	s.wanted[txn] = req
	s.addWaiterEdges(ls, pos)
	m.waitCount.Add(1)
	s.mu.Unlock()
	m.kickDetector()

	start := time.Now()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-req.granted:
	case <-timer.C:
		if err = m.raceDrain(s, res, ls, req); err == errDropped {
			m.timeouts.Add(1)
			err = fmt.Errorf("%w: %s requesting %s on %s", ErrTimeout, txn, target, res)
		}
	case <-ctx.Done():
		if err = m.raceDrain(s, res, ls, req); err == errDropped {
			m.timeouts.Add(1)
			err = fmt.Errorf("lock: wait canceled: %w (%s requesting %s on %s)", ctx.Err(), txn, target, res)
		}
	}
	m.observeWait(idx, txn, res, target, time.Since(start), err)
	return err
}

// errDropped is raceDrain's signal that the request was still queued and has
// now been removed — the caller owns producing the final error.
var errDropped = errors.New("lock: request dropped")

// raceDrain resolves the race between a timeout/cancel and a grant (or victim
// abort) already delivered: if req resolved first its error wins; otherwise
// the request is dropped from the queue and errDropped returned.
func (m *Manager) raceDrain(s *shard, res Resource, ls *lockState, req *request) error {
	s.lock()
	select {
	case err := <-req.granted:
		s.mu.Unlock()
		return err
	default:
	}
	s.dropRequest(res, ls, req)
	s.mu.Unlock()
	return errDropped
}

// observeWait attributes one resolved blocked acquisition to metrics and the
// tracer. Outcome is derived from err: nil grant, deadlock victim, or
// timeout/cancel.
func (m *Manager) observeWait(idx uint32, txn id.Txn, res Resource, mode Mode, wait time.Duration, err error) {
	outcome := "granted"
	switch {
	case err == nil:
	case errors.Is(err, ErrDeadlock):
		outcome = "deadlock"
	case errors.Is(err, ErrTimeout):
		outcome = "timeout"
	default:
		outcome = "canceled"
	}
	if m.met != nil {
		m.met.Wait.Observe(wait)
		if sw := m.met.Shard(int(idx)); sw != nil {
			sw.Waits.Add(1)
			sw.WaitNs.Add(wait.Nanoseconds())
			switch outcome {
			case "deadlock":
				sw.Deadlocks.Add(1)
			case "timeout", "canceled":
				sw.Timeouts.Add(1)
			}
		}
		// Attribute the wait to the actual key resource (tree-level and
		// intention locks carry no key and stay stripe-attributed only).
		if res.Key != "" {
			m.met.Hot.Add(metrics.HotKey{Tree: res.Tree, Key: res.Key},
				wait.Nanoseconds(), 1)
		}
	}
	if m.tracer != nil {
		m.tracer.TraceEvent(metrics.Event{
			Type:     metrics.EventLockWait,
			Txn:      txn,
			Dur:      wait,
			Resource: res.String(),
			Mode:     mode.String(),
			Outcome:  outcome,
		})
	}
}

// grantable reports whether txn may hold res in mode given current grants
// (ignoring txn's own current grant, which a conversion replaces).
func grantable(ls *lockState, txn id.Txn, mode Mode) bool {
	for holder, held := range ls.granted {
		if holder == txn {
			continue
		}
		if !Compatible(held, mode) {
			return false
		}
	}
	return true
}

func (s *shard) grant(ls *lockState, txn id.Txn, res Resource, mode Mode) {
	ls.granted[txn] = mode
	h := s.held[txn]
	if h == nil {
		h = s.newHeldMap()
		s.held[txn] = h
	}
	h[res] = mode
}

// addWaiterEdges installs the waits-for edges for the request just queued at
// pos — incompatible grant holders plus every earlier waiter — and adds one
// edge from each later waiter to it. O(grants + queue), where the old full
// rebuild was O(queue²) per enqueue.
func (s *shard) addWaiterEdges(ls *lockState, pos int) {
	req := ls.queue[pos]
	edges := s.newEdgeSet()
	for holder, held := range ls.granted {
		if holder != req.txn && !Compatible(held, req.mode) {
			edges[holder] = true
		}
	}
	for j := 0; j < pos; j++ {
		if ls.queue[j].txn != req.txn {
			edges[ls.queue[j].txn] = true
		}
	}
	s.waits[req.txn] = edges
	for j := pos + 1; j < len(ls.queue); j++ {
		s.waits[ls.queue[j].txn][req.txn] = true
	}
}

// setEdge flips one waits-for edge.
func setEdge(edges map[id.Txn]bool, to id.Txn, on bool) {
	if on {
		edges[to] = true
	} else {
		delete(edges, to)
	}
}

// dropRequest removes a waiting request (victim or timeout), repairs the
// remaining waiters' edges, and re-runs the grant scan, since the drop may
// unblock others.
func (s *shard) dropRequest(res Resource, ls *lockState, req *request) {
	pos := -1
	for i, r := range ls.queue {
		if r == req {
			pos = i
			break
		}
	}
	if pos >= 0 {
		copy(ls.queue[pos:], ls.queue[pos+1:])
		ls.queue[len(ls.queue)-1] = nil
		ls.queue = ls.queue[:len(ls.queue)-1]
		// Waiters that queued after req no longer wait on it as an earlier
		// waiter; if it was a conversion the txn still holds the resource,
		// so the edge stays exactly when that held mode is incompatible.
		heldMode := ls.granted[req.txn]
		for i := pos; i < len(ls.queue); i++ {
			w := ls.queue[i]
			if w.txn != req.txn {
				setEdge(s.waits[w.txn], req.txn, heldMode != ModeNone && !Compatible(heldMode, w.mode))
			}
		}
	}
	if s.wanted[req.txn] == req {
		delete(s.wanted, req.txn)
		s.freeEdges(req.txn)
	}
	s.scan(res, ls)
}

// scan grants queued requests in order, stopping at the first that cannot
// proceed, and keeps survivors' waits-for edges current as grants happen.
func (s *shard) scan(res Resource, ls *lockState) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if !grantable(ls, req.txn, req.mode) {
			break
		}
		copy(ls.queue, ls.queue[1:])
		ls.queue[len(ls.queue)-1] = nil
		ls.queue = ls.queue[:len(ls.queue)-1]
		s.grant(ls, req.txn, res, req.mode)
		if s.wanted[req.txn] == req {
			delete(s.wanted, req.txn)
			s.freeEdges(req.txn)
		}
		// The granted txn moved from earlier-waiter to holder: survivors now
		// wait on it exactly when its granted mode is incompatible.
		for _, w := range ls.queue {
			if w.txn != req.txn {
				setEdge(s.waits[w.txn], req.txn, !Compatible(req.mode, w.mode))
			}
		}
		req.granted <- nil
	}
	s.gcState(res, ls)
}

func (s *shard) gcState(res Resource, ls *lockState) {
	if len(ls.granted) == 0 && len(ls.queue) == 0 {
		delete(s.table, res)
		s.freeLockState(ls)
	}
}

// Unlock releases txn's lock on res (used by system transactions, which hold
// short locks). It is a no-op when nothing is held.
func (m *Manager) Unlock(txn id.Txn, res Resource) {
	s := m.shardOf(res)
	s.lock()
	if ls := s.table[res]; ls != nil {
		s.release(res, ls, txn)
	}
	s.mu.Unlock()
}

// release drops txn's grant on res and rescans. Caller holds s.mu and must
// guarantee ls == s.table[res].
func (s *shard) release(res Resource, ls *lockState, txn id.Txn) {
	if _, ok := ls.granted[txn]; !ok {
		return
	}
	delete(ls.granted, txn)
	if h := s.held[txn]; h != nil {
		delete(h, res)
		if len(h) == 0 {
			delete(s.held, txn)
			s.freeHeldMap(h)
		}
	}
	// A releasing txn is running, so it cannot itself be queued here: every
	// waiter's edge to it was a holder edge, now gone.
	for _, w := range ls.queue {
		if w.txn != txn {
			delete(s.waits[w.txn], txn)
		}
	}
	s.scan(res, ls)
}

// ReleaseAll releases every lock txn holds (commit or abort). The reverse
// index is per-shard, so this visits each stripe once.
func (m *Manager) ReleaseAll(txn id.Txn) {
	var buf [16]Resource
	for _, s := range m.shards {
		s.lock()
		h := s.held[txn]
		if h == nil {
			s.mu.Unlock()
			continue
		}
		resources := buf[:0]
		for res := range h {
			resources = append(resources, res)
		}
		for _, res := range resources {
			if ls := s.table[res]; ls != nil {
				s.release(res, ls, txn)
			}
		}
		s.mu.Unlock()
	}
}

// HeldMode returns the mode txn currently holds on res.
func (m *Manager) HeldMode(txn id.Txn, res Resource) Mode {
	s := m.shardOf(res)
	s.lock()
	defer s.mu.Unlock()
	if h := s.held[txn]; h != nil {
		return h[res]
	}
	return ModeNone
}

// Free reports whether a new requester would be granted res in mode at once:
// nobody holds it in a conflicting mode and nobody waits for it. The answer is
// a hint that may be stale on return — callers that would rather skip busy
// work than queue behind it (the ghost cleaner) ask before they request.
func (m *Manager) Free(res Resource, mode Mode) bool {
	s := m.shardOf(res)
	s.lock()
	defer s.mu.Unlock()
	ls := s.table[res]
	return ls == nil || (len(ls.queue) == 0 && grantable(ls, id.None, mode))
}

// CountKeyLocks counts the key-granular locks txn holds within tree,
// aggregated across shards; the engine consults it for lock escalation.
func (m *Manager) CountKeyLocks(txn id.Txn, tree id.Tree) int {
	n := 0
	for _, s := range m.shards {
		s.lock()
		for res := range s.held[txn] {
			if res.Tree == tree && res.Key != "" {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// ReleaseKeyLocks drops every key-granular lock txn holds within tree; used
// after escalation replaced them with a tree lock.
func (m *Manager) ReleaseKeyLocks(txn id.Txn, tree id.Tree) {
	var buf [16]Resource
	for _, s := range m.shards {
		s.lock()
		drop := buf[:0]
		for res := range s.held[txn] {
			if res.Tree == tree && res.Key != "" {
				drop = append(drop, res)
			}
		}
		for _, res := range drop {
			if ls := s.table[res]; ls != nil {
				s.release(res, ls, txn)
			}
		}
		s.mu.Unlock()
	}
}

// Free-list plumbing. All callers hold s.mu.

const maxFree = 256 // cap per-shard free lists

func (s *shard) newLockState() *lockState {
	if n := len(s.lsFree); n > 0 {
		ls := s.lsFree[n-1]
		s.lsFree = s.lsFree[:n-1]
		return ls
	}
	return &lockState{granted: make(map[id.Txn]Mode, 4)}
}

func (s *shard) freeLockState(ls *lockState) {
	if len(s.lsFree) < maxFree {
		ls.queue = ls.queue[:0]
		s.lsFree = append(s.lsFree, ls)
	}
}

func (s *shard) newHeldMap() map[Resource]Mode {
	if n := len(s.heldFree); n > 0 {
		h := s.heldFree[n-1]
		s.heldFree = s.heldFree[:n-1]
		return h
	}
	return make(map[Resource]Mode, 4)
}

func (s *shard) freeHeldMap(h map[Resource]Mode) {
	if len(s.heldFree) < maxFree {
		s.heldFree = append(s.heldFree, h)
	}
}

func (s *shard) newEdgeSet() map[id.Txn]bool {
	if n := len(s.edgeFree); n > 0 {
		e := s.edgeFree[n-1]
		s.edgeFree = s.edgeFree[:n-1]
		return e
	}
	return make(map[id.Txn]bool, 4)
}

func (s *shard) freeEdges(txn id.Txn) {
	e, ok := s.waits[txn]
	if !ok {
		return
	}
	delete(s.waits, txn)
	if len(s.edgeFree) < maxFree {
		clear(e)
		s.edgeFree = append(s.edgeFree, e)
	}
}
