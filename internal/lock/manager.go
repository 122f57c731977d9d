package lock

import (
	"bytes"
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

// Resource names a lockable object: a whole tree (empty Key) or one key
// within a tree. The constructors hash the name once; Key stays the caller's
// bytes, read only during the call it is passed to (the lock table keeps its
// own copy), so naming a resource allocates nothing.
type Resource struct {
	Tree id.Tree
	Key  []byte
	hash uint64
}

// TreeResource returns the whole-tree resource (for intention and escalated
// locks).
func TreeResource(t id.Tree) Resource { return Resource{Tree: t, hash: hashOf(t, nil)} }

// KeyResource returns the resource for one key of a tree.
func KeyResource(t id.Tree, key []byte) Resource {
	return Resource{Tree: t, Key: key, hash: hashOf(t, key)}
}

// hashOf is FNV-1a over the tree id and the key bytes.
func hashOf(t id.Tree, key []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(t>>(8*i)))) * 1099511628211
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// sum returns the resource's hash, computing it for a Resource built as a
// literal rather than by a constructor.
func (r Resource) sum() uint64 {
	if r.hash == 0 {
		return hashOf(r.Tree, r.Key)
	}
	return r.hash
}

// String renders the resource for errors and traces.
func (r Resource) String() string {
	if len(r.Key) == 0 {
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

// Owner is one transaction's lock list: every grant it holds, and per tree
// its grant on the tree itself and its count of key grants. Releasing walks
// the list and visits only the shards it names. The engine keeps one inside
// each txn.Txn, so a transaction allocates nothing for its list; the grants
// come from the shards' free lists.
//
// The owner's goroutine reads and changes the list without a mutex. Another
// goroutine changes it only while the owner is blocked in a request of its
// own — granting that request links it here — and only under the request's
// shard mutex, which the owner takes again before it looks. An Owner must
// not be copied after first use.
type Owner struct {
	Txn id.Txn

	head   *grant     // newest grant first
	wanted *request   // the request the owner is blocked on; guarded by its shard mutex
	trees  []treeSlot // one per tree the owner holds locks in
	buf    [2]treeSlot
}

// treeSlot is an owner's state in one tree.
type treeSlot struct {
	tree  id.Tree
	keys  int32  // key grants in the tree
	whole *grant // the grant on the tree itself, or nil
}

// slot returns o's slot for tree, adding one when add is set (nil otherwise
// when there is none). The pointer is valid until the next add.
func (o *Owner) slot(tree id.Tree, add bool) *treeSlot {
	for i := range o.trees {
		if o.trees[i].tree == tree {
			return &o.trees[i]
		}
	}
	if !add {
		return nil
	}
	if o.trees == nil {
		o.trees = o.buf[:0]
	}
	o.trees = append(o.trees, treeSlot{tree: tree})
	return &o.trees[len(o.trees)-1]
}

// KeyLocks returns the number of key locks o holds in tree; the engine asks
// it for lock escalation.
func (o *Owner) KeyLocks(tree id.Tree) int {
	if sl := o.slot(tree, false); sl != nil {
		return int(sl.keys)
	}
	return 0
}

func (o *Owner) link(g *grant) {
	g.prev, g.next = nil, o.head
	if o.head != nil {
		o.head.prev = g
	}
	o.head = g
	sl := o.slot(g.ls.tree, true)
	if len(g.ls.key) == 0 {
		sl.whole = g
	} else {
		sl.keys++
	}
}

func (o *Owner) unlink(g *grant) {
	if g.prev != nil {
		g.prev.next = g.next
	} else {
		o.head = g.next
	}
	if g.next != nil {
		g.next.prev = g.prev
	}
	sl := o.slot(g.ls.tree, false)
	if len(g.ls.key) == 0 {
		sl.whole = nil
	} else {
		sl.keys--
	}
}

// grant is one owner's hold on one resource. It sits on two lists: the
// resource's holders, guarded by the shard mutex, and the owner's list.
type grant struct {
	s          *shard
	ls         *lockState
	owner      *Owner
	mode       Mode
	nextHolder *grant
	prev, next *grant // the owner's list
}

// request is one waiting lock request.
type request struct {
	owner   *Owner
	s       *shard
	ls      *lockState
	mode    Mode // target mode (already the sup for conversions)
	convert bool // the owner already holds the resource in a weaker mode
	granted chan error
}

// lockState is the queue and the holders of one resource.
type lockState struct {
	tree    id.Tree
	key     []byte // the table's own copy of the resource's key
	hash    uint64
	next    *lockState // the next state whose hash is the same
	holders *grant
	queue   []*request
}

func (ls *lockState) resource() Resource { return Resource{Tree: ls.tree, Key: ls.key, hash: ls.hash} }

// holder returns o's grant on ls, or nil.
func (ls *lockState) holder(o *Owner) *grant {
	for g := ls.holders; g != nil; g = g.nextHolder {
		if g.owner == o {
			return g
		}
	}
	return nil
}

// holderTxn returns txn's grant on ls, or nil.
func (ls *lockState) holderTxn(txn id.Txn) *grant {
	for g := ls.holders; g != nil; g = g.nextHolder {
		if g.owner.Txn == txn {
			return g
		}
	}
	return nil
}

// shard is one stripe of the lock manager: a private mutex, the lock table
// of the resources that hash to it, and free lists that keep the uncontended
// acquire/release cycle allocation-free. Uncontended acquires on resources
// in different shards never touch a shared mutex.
type shard struct {
	mu    sync.Mutex
	table map[uint64]*lockState

	lsFree []*lockState
	gFree  []*grant

	counters
}

// counters are one shard's share of the lock manager's counters; Snapshot
// sums them. The plain fields are guarded by the shard mutex. The atomic ones
// change outside it: a collision is counted before the mutex is held, a
// resolved wait after the waiter woke.
type counters struct {
	requests  int64 // requests that reached the shard
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

// find returns res's state, or nil. Caller holds s.mu.
func (s *shard) find(res Resource, h uint64) *lockState {
	for ls := s.table[h]; ls != nil; ls = ls.next {
		if ls.tree == res.Tree && bytes.Equal(ls.key, res.Key) {
			return ls
		}
	}
	return nil
}

// Manager is the lock manager. One instance serves a whole database. The
// lock table is striped: resources hash to one of N shards, so independent
// resources never contend. A request that blocks checks for the deadlock it
// may have closed (see detector.go); the manager starts no goroutine.
type Manager struct {
	shards []*shard
	mask   uint64

	// ids keeps the lists of transactions named by ID alone (Lock, ReleaseAll
	// and the other methods taking an id.Txn), striped by ID like the table.
	ids []idStripe

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

// idStripe is one stripe of the manager's lists for ID-named transactions.
type idStripe struct {
	mu    sync.Mutex
	lists map[id.Txn]*Owner
	free  []*Owner
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
		mask:           uint64(n - 1),
		ids:            make([]idStripe, n),
		met:            o.Metrics,
		tracer:         o.Tracer,
		DefaultTimeout: o.DefaultTimeout,
	}
	for i := range m.shards {
		m.shards[i] = &shard{table: make(map[uint64]*lockState)}
		m.ids[i].lists = make(map[id.Txn]*Owner)
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

func (m *Manager) shardIndex(res Resource) uint32 { return uint32(res.sum() & m.mask) }

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

// Acquire acquires res in mode for o, blocking until granted, deadlock,
// timeout (0 means DefaultTimeout) or the end of ctx, and returns the mode o
// held on res before the call. Re-requests in covered modes return at once —
// on a tree, from o's own list without visiting the table; stronger modes
// convert. Conversions wait ahead of new requests. A request that blocks
// checks for a deadlock at once; the youngest transaction in a cycle aborts.
// The fast (uncontended) path never checks ctx.
func (m *Manager) Acquire(ctx context.Context, o *Owner, res Resource, mode Mode, timeout time.Duration) (Mode, error) {
	if len(res.Key) == 0 {
		if sl := o.slot(res.Tree, false); sl != nil && sl.whole != nil && Covers(sl.whole.mode, mode) {
			return sl.whole.mode, nil
		}
	}
	if timeout <= 0 {
		timeout = m.DefaultTimeout
	}
	h := res.sum()
	s := m.shards[h&m.mask]
	s.lock()
	s.requests++
	ls := s.find(res, h)
	if ls == nil {
		ls = s.newLockState(res, h)
	}
	g := ls.holder(o)
	cur := ModeNone
	if g != nil {
		cur = g.mode
	}
	target := Sup(cur, mode)
	if g != nil && target == cur {
		s.mu.Unlock()
		return cur, nil // already covered
	}
	if grantable(ls, o, target) && (g != nil || len(ls.queue) == 0) {
		s.grant(ls, o, g, target)
		s.mu.Unlock()
		return cur, nil
	}

	// Must wait.
	req := &request{owner: o, s: s, ls: ls, mode: target, convert: g != nil, granted: make(chan error, 1)}
	pos := len(ls.queue)
	if req.convert {
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
	o.wanted = req
	s.blocked++
	s.mu.Unlock()

	start := time.Now()
	m.checkDeadlock(req)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-req.granted:
	case <-timer.C:
		if err = m.raceDrain(req); err == errDropped {
			err = fmt.Errorf("%w: %s requesting %s on %s", ErrTimeout, o.Txn, target, res)
		}
	case <-ctx.Done():
		if err = m.raceDrain(req); err == errDropped {
			err = fmt.Errorf("lock: wait canceled: %w (%s requesting %s on %s)", ctx.Err(), o.Txn, target, res)
		}
	}
	m.observeWait(s, o.Txn, res, target, time.Since(start), err)
	return cur, err
}

// Instant takes res in mode for an instant, for o: it waits as Acquire
// would, but leaves o holding nothing it did not hold before. When o holds
// nothing on res and the mode would be granted at once, it answers after one
// visit to the shard and creates no lock-table state.
func (m *Manager) Instant(ctx context.Context, o *Owner, res Resource, mode Mode, timeout time.Duration) error {
	h := res.sum()
	s := m.shards[h&m.mask]
	s.lock()
	s.requests++
	ls := s.find(res, h)
	free := ls == nil
	if !free {
		if g := ls.holder(o); g != nil {
			free = Covers(g.mode, mode)
		} else {
			free = len(ls.queue) == 0 && grantable(ls, o, mode)
		}
	}
	s.mu.Unlock()
	if free {
		return nil
	}
	prior, err := m.Acquire(ctx, o, res, mode, timeout)
	if err == nil && prior == ModeNone {
		m.Release(o, res)
	}
	return err
}

// errDropped is raceDrain's signal that the request was still queued and has
// now been removed — the caller owns producing the final error.
var errDropped = errors.New("lock: request dropped")

// raceDrain resolves the race between a timeout/cancel and a grant (or victim
// abort) already delivered: if req resolved first its error wins; otherwise
// the request is dropped from the queue, counted as a timeout, and errDropped
// returned.
func (m *Manager) raceDrain(req *request) error {
	s := req.s
	s.lock()
	select {
	case err := <-req.granted:
		s.mu.Unlock()
		return err
	default:
	}
	s.dropRequest(req)
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
		if len(res.Key) != 0 {
			m.met.Hot.Add(res.Tree, res.Key, wait.Nanoseconds(), 1)
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

// grantable reports whether o may hold ls in mode given current grants
// (ignoring o's own grant, which a conversion replaces).
func grantable(ls *lockState, o *Owner, mode Mode) bool {
	for g := ls.holders; g != nil; g = g.nextHolder {
		if g.owner != o && !Compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

// grant gives o ls in mode: a conversion raises o's grant g, a new grant
// joins the holders and o's list. Caller holds s.mu.
func (s *shard) grant(ls *lockState, o *Owner, g *grant, mode Mode) {
	if g != nil {
		g.mode = mode
		return
	}
	g = s.newGrant()
	g.s, g.ls, g.owner, g.mode = s, ls, o, mode
	g.nextHolder = ls.holders
	ls.holders = g
	o.link(g)
}

// dropRequest removes a waiting request (victim or timeout) and re-runs the
// grant scan, since the drop may unblock others.
func (s *shard) dropRequest(req *request) {
	ls := req.ls
	for i, r := range ls.queue {
		if r == req {
			copy(ls.queue[i:], ls.queue[i+1:])
			ls.queue[len(ls.queue)-1] = nil
			ls.queue = ls.queue[:len(ls.queue)-1]
			break
		}
	}
	if req.owner.wanted == req {
		req.owner.wanted = nil
	}
	s.scan(ls)
}

// scan grants queued requests in order, stopping at the first that cannot
// proceed, and frees the state when nobody holds or wants it.
func (s *shard) scan(ls *lockState) {
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if !grantable(ls, req.owner, req.mode) {
			break
		}
		copy(ls.queue, ls.queue[1:])
		ls.queue[len(ls.queue)-1] = nil
		ls.queue = ls.queue[:len(ls.queue)-1]
		s.grant(ls, req.owner, ls.holder(req.owner), req.mode)
		if req.owner.wanted == req {
			req.owner.wanted = nil
		}
		req.granted <- nil
	}
	if ls.holders == nil && len(ls.queue) == 0 {
		s.removeLockState(ls)
	}
}

// release drops grant g from its resource and rescans the resource; the
// caller sees to the owner's list. Caller holds s.mu.
func (s *shard) release(g *grant) {
	ls := g.ls
	for p := &ls.holders; *p != nil; p = &(*p).nextHolder {
		if *p == g {
			*p = g.nextHolder
			break
		}
	}
	s.freeGrant(g)
	s.scan(ls)
}

// Release drops o's lock on res, if it holds one.
func (m *Manager) Release(o *Owner, res Resource) { m.unlock(o, 0, res) }

// Unlock releases txn's lock on res (used by system transactions, which hold
// short locks). It is a no-op when nothing is held.
func (m *Manager) Unlock(txn id.Txn, res Resource) { m.unlock(nil, txn, res) }

// unlock drops the grant on res of o, or of txn when o is nil.
func (m *Manager) unlock(o *Owner, txn id.Txn, res Resource) {
	h := res.sum()
	s := m.shards[h&m.mask]
	s.lock()
	defer s.mu.Unlock()
	ls := s.find(res, h)
	if ls == nil {
		return
	}
	var g *grant
	if o != nil {
		g = ls.holder(o)
	} else {
		g = ls.holderTxn(txn)
	}
	if g != nil {
		g.owner.unlink(g)
		s.release(g)
	}
}

// ReleaseOwner releases every lock o holds (commit or abort), visiting each
// shard its list names, once per run of grants in the same shard.
func (m *Manager) ReleaseOwner(o *Owner) {
	for g := o.head; g != nil; {
		s := g.s
		s.lock()
		for g != nil && g.s == s {
			next := g.next
			s.release(g)
			g = next
		}
		s.mu.Unlock()
	}
	o.head = nil
	clear(o.trees)
	o.trees = o.trees[:0]
}

// ReleaseKeys drops every key lock o holds in tree; the engine calls it
// after escalation replaced them with a tree lock.
func (m *Manager) ReleaseKeys(o *Owner, tree id.Tree) {
	for g := o.head; g != nil; {
		next := g.next
		if g.ls.tree == tree && len(g.ls.key) != 0 {
			s := g.s
			o.unlink(g)
			s.lock()
			s.release(g)
			s.mu.Unlock()
		}
		g = next
	}
}

// ownerOf returns the list the manager keeps for txn, creating it when add
// is set.
func (m *Manager) ownerOf(txn id.Txn, add bool) *Owner {
	st := &m.ids[uint64(txn)&m.mask]
	st.mu.Lock()
	defer st.mu.Unlock()
	o := st.lists[txn]
	if o == nil && add {
		if n := len(st.free); n > 0 {
			o = st.free[n-1]
			st.free = st.free[:n-1]
		} else {
			o = new(Owner)
		}
		o.Txn = txn
		st.lists[txn] = o
	}
	return o
}

// Lock acquires res in mode for txn, as Acquire does for the list the
// manager keeps for txn until ReleaseAll(txn).
func (m *Manager) Lock(txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	return m.LockCtx(context.Background(), txn, res, mode, timeout)
}

// LockCtx is Lock with a context: cancelling ctx aborts an in-flight wait
// with a wrapped ctx.Err().
func (m *Manager) LockCtx(ctx context.Context, txn id.Txn, res Resource, mode Mode, timeout time.Duration) error {
	_, err := m.Acquire(ctx, m.ownerOf(txn, true), res, mode, timeout)
	return err
}

// ReleaseAll releases every lock txn holds (commit or abort) and forgets the
// list the manager kept for it.
func (m *Manager) ReleaseAll(txn id.Txn) {
	st := &m.ids[uint64(txn)&m.mask]
	st.mu.Lock()
	o := st.lists[txn]
	delete(st.lists, txn)
	st.mu.Unlock()
	if o == nil {
		return
	}
	m.ReleaseOwner(o)
	st.mu.Lock()
	if len(st.free) < maxFree {
		st.free = append(st.free, o)
	}
	st.mu.Unlock()
}

// HeldMode returns the mode txn currently holds on res, whoever keeps its
// list.
func (m *Manager) HeldMode(txn id.Txn, res Resource) Mode {
	h := res.sum()
	s := m.shards[h&m.mask]
	s.lock()
	defer s.mu.Unlock()
	if ls := s.find(res, h); ls != nil {
		if g := ls.holderTxn(txn); g != nil {
			return g.mode
		}
	}
	return ModeNone
}

// listOf finds txn's list for a question about tree: the list the manager
// keeps for txn or, for a list its caller keeps (the engine's), the one its
// grant on the tree names — multi-granularity locking takes the tree's
// intention lock before any key lock in it.
func (m *Manager) listOf(txn id.Txn, tree id.Tree) *Owner {
	if o := m.ownerOf(txn, false); o != nil {
		return o
	}
	res := TreeResource(tree)
	s := m.shards[res.hash&m.mask]
	s.lock()
	defer s.mu.Unlock()
	if ls := s.find(res, res.hash); ls != nil {
		if g := ls.holderTxn(txn); g != nil {
			return g.owner
		}
	}
	return nil
}

// Free reports whether a new requester would be granted res in mode at once:
// nobody holds it in a conflicting mode and nobody waits for it. The answer is
// a hint that may be stale on return — callers that would rather skip busy
// work than queue behind it (the ghost cleaner) ask before they request.
func (m *Manager) Free(res Resource, mode Mode) bool {
	h := res.sum()
	s := m.shards[h&m.mask]
	s.lock()
	defer s.mu.Unlock()
	ls := s.find(res, h)
	return ls == nil || (len(ls.queue) == 0 && grantable(ls, nil, mode))
}

// CountKeyLocks counts the key locks txn holds in tree, from its list.
func (m *Manager) CountKeyLocks(txn id.Txn, tree id.Tree) int {
	if o := m.listOf(txn, tree); o != nil {
		return o.KeyLocks(tree)
	}
	return 0
}

// ReleaseKeyLocks drops every key lock txn holds in tree.
func (m *Manager) ReleaseKeyLocks(txn id.Txn, tree id.Tree) {
	if o := m.listOf(txn, tree); o != nil {
		m.ReleaseKeys(o, tree)
	}
}

// Free-list plumbing. All callers hold s.mu.

const maxFree = 256 // cap per-shard free lists

// newLockState creates res's state and enters it in the table.
func (s *shard) newLockState(res Resource, h uint64) *lockState {
	var ls *lockState
	if n := len(s.lsFree); n > 0 {
		ls = s.lsFree[n-1]
		s.lsFree = s.lsFree[:n-1]
	} else {
		ls = new(lockState)
	}
	ls.tree, ls.key, ls.hash = res.Tree, append(ls.key[:0], res.Key...), h
	ls.next = s.table[h]
	s.table[h] = ls
	return ls
}

// removeLockState takes ls out of the table and recycles it.
func (s *shard) removeLockState(ls *lockState) {
	if p := s.table[ls.hash]; p == ls {
		if ls.next == nil {
			delete(s.table, ls.hash)
		} else {
			s.table[ls.hash] = ls.next
		}
	} else {
		for p.next != ls {
			p = p.next
		}
		p.next = ls.next
	}
	ls.next = nil
	if len(s.lsFree) < maxFree {
		ls.queue = ls.queue[:0]
		s.lsFree = append(s.lsFree, ls)
	}
}

func (s *shard) newGrant() *grant {
	if n := len(s.gFree); n > 0 {
		g := s.gFree[n-1]
		s.gFree = s.gFree[:n-1]
		return g
	}
	return new(grant)
}

func (s *shard) freeGrant(g *grant) {
	*g = grant{}
	if len(s.gFree) < maxFree {
		s.gFree = append(s.gFree, g)
	}
}
