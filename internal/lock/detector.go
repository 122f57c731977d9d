package lock

import (
	"fmt"
	"time"
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

// checkDeadlock runs the block-time check for req, which is queued. The
// caller holds no shard mutex.
func (m *Manager) checkDeadlock(req *request) {
	start := time.Now()
	for _, sh := range m.shards {
		sh.lock()
	}
	for req.owner.wanted == req {
		victim := findVictim(req.owner)
		if victim == nil {
			break
		}
		vreq := victim.wanted
		vreq.s.deadlocks++
		vreq.granted <- fmt.Errorf("%w: %s requesting %s on %s",
			ErrDeadlock, victim.Txn, vreq.mode, vreq.ls.resource())
		vreq.s.dropRequest(vreq)
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

// successors returns the transactions o waits for: the holders of the
// resource it is queued on whose granted mode conflicts with its request, and
// the transactions queued ahead of it. Caller holds every shard mutex.
func successors(o *Owner) []*Owner {
	req := o.wanted
	if req == nil {
		return nil
	}
	var out []*Owner
	for g := req.ls.holders; g != nil; g = g.nextHolder {
		if g.owner != o && !Compatible(g.mode, req.mode) {
			out = append(out, g.owner)
		}
	}
	for _, w := range req.ls.queue {
		if w == req {
			break
		}
		out = append(out, w.owner)
	}
	return out
}

// findVictim searches the waits-for graph depth first from root and returns
// the youngest member (the largest transaction ID) of the first cycle it
// meets, or nil when no cycle is reachable. Caller holds every shard mutex.
func findVictim(root *Owner) *Owner {
	const (
		onStack = 1
		done    = 2
	)
	state := make(map[*Owner]int8)
	var stack []*Owner
	var victim *Owner
	var dfs func(o *Owner) bool
	dfs = func(o *Owner) bool {
		state[o] = onStack
		stack = append(stack, o)
		for _, next := range successors(o) {
			switch state[next] {
			case onStack:
				// The cycle is the stack suffix from next back to o.
				for i := len(stack) - 1; ; i-- {
					if victim == nil || stack[i].Txn > victim.Txn {
						victim = stack[i]
					}
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
		state[o] = done
		stack = stack[:len(stack)-1]
		return false
	}
	dfs(root)
	return victim
}
