package lock

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/id"
)

// Background deadlock detection (ISSUE 1). The old manager ran a waits-for
// DFS inline, under the global mutex, on every blocked request. With the
// lock table striped the waits-for graph spans shards, so detection moves
// off the acquire path entirely: a blocked request just queues and kicks the
// detector goroutine, which takes a consistent snapshot of every shard's
// wait edges, finds cycles, and aborts the youngest transaction of each
// cycle (SQL Server style — the youngest has done the least work).
//
// A sweep locks all shards in index order, so the graph it sees is globally
// consistent: a cycle in that snapshot is a genuine deadlock, because no
// member can make progress while the sweep holds the locks. Sweeps run at
// most once per sweepInterval and only while waiters exist, so the cost is
// bounded and the uncontended path never pays it.

// sweepInterval throttles the detector: at most one sweep per interval while
// waiters exist. It bounds how long a deadlocked transaction waits before its
// victim aborts.
const sweepInterval = time.Millisecond

// kickDetector nudges the detector after a request blocks. Non-blocking:
// one pending kick is enough.
func (m *Manager) kickDetector() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// detectorLoop parks until a request blocks, then sweeps every sweepInterval
// until no waiters remain.
func (m *Manager) detectorLoop() {
	defer close(m.done)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("vtxn", "lock-detector")))
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-m.stop:
			return
		case <-m.kick:
		}
		for {
			if m.sweep() == 0 {
				break // no waiters left; park on the next kick
			}
			timer.Reset(sweepInterval)
			select {
			case <-m.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
	}
}

// waiterRef locates one blocked request for victim abort.
type waiterRef struct {
	s   *shard
	req *request
}

// sweep takes a consistent all-shards snapshot, aborts one victim per cycle
// until the graph is acyclic, and returns the number of remaining waiters.
func (m *Manager) sweep() int {
	start := time.Now()
	for _, s := range m.shards {
		s.lock()
	}
	for {
		waiting := make(map[id.Txn]waiterRef)
		for _, s := range m.shards {
			for txn, req := range s.wanted {
				waiting[txn] = waiterRef{s: s, req: req}
			}
		}
		victim, req := m.findVictim(waiting)
		if victim == id.None {
			n := len(waiting)
			for i := len(m.shards) - 1; i >= 0; i-- {
				m.shards[i].mu.Unlock()
			}
			dur := time.Since(start)
			m.sweeps.Add(1)
			m.lastSweep.Store(dur.Nanoseconds())
			for {
				cur := m.maxSweep.Load()
				if dur.Nanoseconds() <= cur || m.maxSweep.CompareAndSwap(cur, dur.Nanoseconds()) {
					break
				}
			}
			return n
		}
		m.deadlocks.Add(1)
		req.req.granted <- fmt.Errorf("%w: %s requesting %s on %s",
			ErrDeadlock, victim, req.req.mode, req.req.res)
		if ls := req.s.table[req.req.res]; ls != nil {
			req.s.dropRequest(req.req.res, ls, req.req)
		}
		// Dropping the victim rescans and may grant other waiters, changing
		// the graph — rebuild the snapshot and look again.
	}
}

// findVictim looks for any waits-for cycle among the blocked transactions
// and returns the youngest member (largest transaction ID — IDs are
// assigned monotonically, so the largest began last). Returns id.None when
// the graph is acyclic. Caller holds every shard mutex.
func (m *Manager) findVictim(waiting map[id.Txn]waiterRef) (id.Txn, waiterRef) {
	const (
		onStack = 1
		doneV   = 2
	)
	state := make(map[id.Txn]int8, len(waiting))
	var stack []id.Txn
	var cycle []id.Txn

	var dfs func(t id.Txn) bool
	dfs = func(t id.Txn) bool {
		state[t] = onStack
		stack = append(stack, t)
		ref, isWaiting := waiting[t]
		if isWaiting {
			for next := range ref.s.waits[t] {
				switch state[next] {
				case onStack:
					// Cycle: the stack suffix from next back to t.
					for i := len(stack) - 1; i >= 0; i-- {
						cycle = append(cycle, stack[i])
						if stack[i] == next {
							break
						}
					}
					return true
				case doneV:
				default:
					if dfs(next) {
						return true
					}
				}
			}
		}
		state[t] = doneV
		stack = stack[:len(stack)-1]
		return false
	}

	for t := range waiting {
		if state[t] == 0 && dfs(t) {
			victim := cycle[0]
			for _, c := range cycle[1:] {
				if c > victim {
					victim = c
				}
			}
			return victim, waiting[victim]
		}
	}
	return id.None, waiterRef{}
}
