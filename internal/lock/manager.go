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
// reverse index, and the requests blocked on the resources that hash to it.
// Uncontended acquires on resources in different shards never touch a
// shared mutex.
type shard struct {
	mu     sync.Mutex
	table  map[Resource]*lockState
	held   map[id.Txn]map[Resource]Mode // reverse index for ReleaseAll
	wanted map[id.Txn]*request          // the single request a txn may be blocked on

	// Free lists keep the uncontended acquire/release cycle allocation-free:
	// emptied lockStates and held maps are recycled instead of handed to the
	// garbage collector.
	lsFree   []*lockState
	heldFree []map[Resource]Mode

	counters
}

// counters are one shard's share of the lock manager's counters; Snapshot
// sums them. The plain fields are guarded by the shard mutex. The atomic ones
// change outside it: a collision is counted before the mutex is held, a
// resolved wait after the waiter woke.
type counters struct {
	requests  int64 // Lock calls on the shard's resources
	blocked   int64 // calls that queued
	deadlocks int64 // queued requests aborted as deadlock victims
	timeouts  int64 // queued requests dropped by timeout or cancel
	maxQueue  int   // deepest wait queue of any resource

	collisions atomic.Int64 // mutex acquisitions that found it held
	waits      atomic.Int64 // resolved waits, whatever the outcome
	waitNs     atomic.Int64 // nanoseconds those waits blocked
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
		wanted: make(map[id.Txn]*request),
	}
}

// Manager is the lock manager. One instance serves a whole database. The
// lock table is striped: resources hash to one of N shards, so independent
// resources never contend. A request that blocks checks for the deadlock it
// may have closed (see detector.go); the manager starts no goroutine.
type Manager struct {
	shards []*shard
	mask   uint32

	// checks counts the deadlock checks run by blocked requests, and
	// lastCheckNs and maxCheckNs report their duration. A check writes them
	// holding every shard mutex, so holding any one is enough to read them.
	checks      int64
	lastCheckNs int64
	maxCheckNs  int64

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
	// Metrics, when set, receives the wait-latency histogram and the keys
	// waited on. Only blocked acquisitions observe it.
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
		met:            o.Metrics,
		tracer:         o.Tracer,
		DefaultTimeout: o.DefaultTimeout,
	}
	for i := range m.shards {
		m.shards[i] = newShard()
	}
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

// Close does nothing: the manager owns no goroutine or other resource. It
// stays because the frozen benchmark's lock probe defers it.
func (m *Manager) Close() {}

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

// Snapshot returns the manager's counters: totals summed over the shards,
// each shard's own, and the wait histogram when Metrics is set.
func (m *Manager) Snapshot() metrics.LockSnapshot {
	st := metrics.LockSnapshot{
		Shards:   len(m.shards),
		PerShard: make([]metrics.LockShardSnapshot, len(m.shards)),
	}
	if m.met != nil {
		st.Wait = m.met.Wait.Snap()
	}
	for i, s := range m.shards {
		s.lock()
		ps := metrics.LockShardSnapshot{
			Waits:         s.waits.Load(),
			WaitNs:        s.waitNs.Load(),
			Deadlocks:     s.deadlocks,
			Timeouts:      s.timeouts,
			Collisions:    s.collisions.Load(),
			MaxQueueDepth: int64(s.maxQueue),
			Resources:     len(s.table),
		}
		st.Requests += s.requests
		st.Waits += s.blocked
		if i == 0 {
			st.Sweeps, st.LastSweepNs, st.MaxSweepNs = m.checks, m.lastCheckNs, m.maxCheckNs
		}
		s.mu.Unlock()
		st.PerShard[i] = ps
		st.Deadlocks += ps.Deadlocks
		st.Timeouts += ps.Timeouts
		st.Collisions += ps.Collisions
		st.MaxQueueDepth = max(st.MaxQueueDepth, ps.MaxQueueDepth)
	}
	return st
}

// Lock acquires res in mode for txn, blocking until granted, deadlock, or
// timeout (0 means DefaultTimeout). Re-requests in covered modes return
// immediately; stronger modes convert. Conversions wait ahead of new
// requests. A request that blocks checks for a deadlock at once; the
// youngest transaction in a cycle aborts.
func (m *Manager) Lock(txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	return m.LockCtx(context.Background(), txn, res, mode, timeout)
}

// LockCtx is Lock with a context: cancelling ctx aborts an in-flight wait
// with a wrapped ctx.Err(). The fast (uncontended) path never checks ctx.
func (m *Manager) LockCtx(ctx context.Context, txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = m.DefaultTimeout
	}
	s := m.shardOf(res)
	s.lock()
	s.requests++
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
	s.blocked++
	s.mu.Unlock()

	start := time.Now()
	m.checkDeadlock(s, req)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-req.granted:
	case <-timer.C:
		if err = m.raceDrain(s, res, ls, req); err == errDropped {
			err = fmt.Errorf("%w: %s requesting %s on %s", ErrTimeout, txn, target, res)
		}
	case <-ctx.Done():
		if err = m.raceDrain(s, res, ls, req); err == errDropped {
			err = fmt.Errorf("lock: wait canceled: %w (%s requesting %s on %s)", ctx.Err(), txn, target, res)
		}
	}
	m.observeWait(s, txn, res, target, time.Since(start), err)
	return err
}

// errDropped is raceDrain's signal that the request was still queued and has
// now been removed — the caller owns producing the final error.
var errDropped = errors.New("lock: request dropped")

// raceDrain resolves the race between a timeout/cancel and a grant (or victim
// abort) already delivered: if req resolved first its error wins; otherwise
// the request is dropped from the queue, counted as a timeout, and errDropped
// returned.
func (m *Manager) raceDrain(s *shard, res Resource, ls *lockState, req *request) error {
	s.lock()
	select {
	case err := <-req.granted:
		s.mu.Unlock()
		return err
	default:
	}
	s.dropRequest(res, ls, req)
	s.timeouts++
	s.mu.Unlock()
	return errDropped
}

// observeWait attributes one resolved blocked acquisition to its shard,
// metrics and the tracer. Outcome is derived from err: nil grant, deadlock
// victim, or timeout/cancel.
func (m *Manager) observeWait(s *shard, txn id.Txn, res Resource, mode Mode, wait time.Duration, err error) {
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
	s.waits.Add(1)
	s.waitNs.Add(wait.Nanoseconds())
	if m.met != nil {
		m.met.Wait.Observe(wait)
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

// dropRequest removes a waiting request (victim or timeout) and re-runs the
// grant scan, since the drop may unblock others.
func (s *shard) dropRequest(res Resource, ls *lockState, req *request) {
	for i, r := range ls.queue {
		if r == req {
			copy(ls.queue[i:], ls.queue[i+1:])
			ls.queue[len(ls.queue)-1] = nil
			ls.queue = ls.queue[:len(ls.queue)-1]
			break
		}
	}
	if s.wanted[req.txn] == req {
		delete(s.wanted, req.txn)
	}
	s.scan(res, ls)
}

// scan grants queued requests in order, stopping at the first that cannot
// proceed.
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
