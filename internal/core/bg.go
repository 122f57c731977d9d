package core

import (
	"context"
	"runtime/pprof"
	"time"
)

// This file is the database's one background runner (DESIGN.md §3). Each
// background activity — the deferred applier, the version pruner, the ghost
// cleaner, the scrubber and the watchdog — is a row of one task table: a
// step function, the period it runs at, and an optional wake channel that
// runs it sooner. The runner owns the goroutines (one per task, labelled
// vtxn=<name> for CPU and goroutine profiles), their tickers and the one stop
// path Close and Crash share. It holds the only go statement in this package.

// task is one background activity.
type task struct {
	name  string
	every time.Duration
	// wake, when non-nil, runs the step at once whenever it fires.
	wake <-chan struct{}
	step func()
	// drain, when non-nil, runs once on the stopping goroutine after the
	// task's goroutine exits, if the stop asks for it (Close, not Crash).
	drain func()

	cancel context.CancelFunc
	done   chan struct{}
}

// runner starts tasks and stops them in reverse start order. Only Open
// starts tasks, and only Close or Crash stops them, so it needs no lock.
type runner struct{ tasks []*task }

// start launches t on its own labelled goroutine.
func (r *runner) start(t task) {
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel, t.done = cancel, make(chan struct{})
	r.tasks = append(r.tasks, &t)
	go pprof.Do(ctx, pprof.Labels("vtxn", t.name), t.run)
}

// run calls step every period, and on each wake, until ctx is canceled.
func (t *task) run(ctx context.Context) {
	defer close(t.done)
	tick := time.NewTicker(t.every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		case <-t.wake:
		}
		t.step()
	}
}

// stop ends every task, newest first, waiting for each to exit before the
// next: the watchdog and the scrubber stop before anything they read, and the
// applier, which Open starts first, stops last. With drain set each task's
// drain hook then runs — the applier's final round, so a cleanly closed
// database reopens with converged views.
func (r *runner) stop(drain bool) {
	for i := len(r.tasks) - 1; i >= 0; i-- {
		t := r.tasks[i]
		t.cancel()
		<-t.done
		if drain && t.drain != nil {
			t.drain()
		}
	}
	r.tasks = nil
}
