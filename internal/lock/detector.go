package lock

import (
	"fmt"
	"time"

	"repro/internal/id"
)

// Deadlock detection runs on the request that blocks. After LockCtx queues a
// request and releases its shard, it latches every shard in index order, so
// it sees one consistent lock table, and searches the waits-for graph from
// its own transaction. A cycle found under every latch is a genuine deadlock:
// no member can make progress while the check holds them. The youngest member
// (the largest transaction ID: it has done the least work) receives
// ErrDeadlock and its request is dropped; the victim may be the caller. The
// check repeats until no cycle is reachable from the caller.
//
// The graph is not stored. A waiting transaction t waits for the holders of
// the resource it is queued on whose granted mode is incompatible with its
// request, and for every transaction queued ahead of it; both are read from
// the lock table when the check runs.
//
// Checking only at block time finds every deadlock, because a cycle can only
// form when a request blocks:
//   - Queueing a request adds the requester's out-edges. A conversion that
//     jumps the queue also adds in-edges to the requester from later waiters.
//     Both kinds touch the requester, and the requester then runs its check.
//   - A conversion that is granted adds in-edges to a running transaction. A
//     running transaction has no out-edges, so no cycle passes through it
//     until it blocks, and then it runs its own check.
//   - Granting from the queue, dropping a request and releasing a grant only
//     keep or remove edges.
//
// So every new cycle passes through a request that just blocked, and that
// request's check runs after the edge exists. Concurrent checks run one at a
// time because each takes all the shard latches, so the last check of the
// requests that built a cycle sees the whole cycle.

// checkDeadlock runs the block-time check for req, which is queued in s. The
// caller holds no shard mutex.
func (m *Manager) checkDeadlock(s *shard, req *request) {
	start := time.Now()
	for _, sh := range m.shards {
		sh.lock()
	}
	for s.wanted[req.txn] == req {
		victim := m.findVictim(req.txn)
		if victim == id.None {
			break
		}
		vs, vreq := m.waitingOn(victim)
		vs.deadlocks++
		vreq.granted <- fmt.Errorf("%w: %s requesting %s on %s",
			ErrDeadlock, victim, vreq.mode, vreq.res)
		if ls := vs.table[vreq.res]; ls != nil {
			vs.dropRequest(vreq.res, ls, vreq)
		}
		// Dropping the victim rescans its queue and may grant other waiters,
		// which changes the graph: look again.
	}
	dur := time.Since(start).Nanoseconds()
	m.checks++
	m.lastCheckNs = dur
	m.maxCheckNs = max(m.maxCheckNs, dur)
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

// waitingOn returns the request txn is blocked on and its shard, or a nil
// request when txn is running. Caller holds every shard mutex.
func (m *Manager) waitingOn(txn id.Txn) (*shard, *request) {
	for _, s := range m.shards {
		if req := s.wanted[txn]; req != nil {
			return s, req
		}
	}
	return nil, nil
}

// successors returns the transactions txn waits for: the holders of the
// resource it is queued on whose granted mode conflicts with its request, and
// the transactions queued ahead of it. Caller holds every shard mutex.
func (m *Manager) successors(txn id.Txn) []id.Txn {
	s, req := m.waitingOn(txn)
	if req == nil {
		return nil
	}
	ls := s.table[req.res]
	var out []id.Txn
	for holder, held := range ls.granted {
		if holder != txn && !Compatible(held, req.mode) {
			out = append(out, holder)
		}
	}
	for _, w := range ls.queue {
		if w == req {
			break
		}
		out = append(out, w.txn)
	}
	return out
}

// findVictim searches the waits-for graph depth first from root and returns
// the youngest member of the first cycle it meets, or id.None when no cycle
// is reachable. Caller holds every shard mutex.
func (m *Manager) findVictim(root id.Txn) id.Txn {
	const (
		onStack = 1
		done    = 2
	)
	state := make(map[id.Txn]int8)
	var stack []id.Txn
	victim := id.None
	var dfs func(t id.Txn) bool
	dfs = func(t id.Txn) bool {
		state[t] = onStack
		stack = append(stack, t)
		for _, next := range m.successors(t) {
			switch state[next] {
			case onStack:
				// The cycle is the stack suffix from next back to t.
				for i := len(stack) - 1; ; i-- {
					victim = max(victim, stack[i])
					if stack[i] == next {
						return true
					}
				}
			case 0:
				if dfs(next) {
					return true
				}
			}
		}
		state[t] = done
		stack = stack[:len(stack)-1]
		return false
	}
	dfs(root)
	return victim
}
