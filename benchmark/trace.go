package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// The benchmark's own span trace: one root span per transaction and one child
// span per vtxn call, recorded around the calls (nothing inside the engine),
// kept in memory and written out when the run ends.

type spanKind uint8

const (
	spTx spanKind = iota // root of a write transaction
	spBegin
	spGet
	spUpdate
	spInsert
	spDelete
	spCommit
	spRoTx // root of a read-only snapshot transaction
	spRoBegin
	spReadGet
	spReadScan
	spRoCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"tx", "begin", "get", "update", "insert", "delete", "commit",
	"ro_tx", "ro_begin", "read_get", "read_scan", "ro_commit",
}

func (k spanKind) root() bool { return k == spTx || k == spRoTx }

type span struct {
	start, end int64 // ns since the run's base time
	txn        uint64
	kind       spanKind
}

// tracer belongs to one client goroutine. While on is false every call is a
// branch and nothing else, so the untraced pass pays no clock reads for it.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	root  int
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// openTx starts a root span; children recorded until closeTx belong to it.
func (t *tracer) openTx(kind spanKind) {
	if t.on {
		t.root = len(t.spans)
		t.spans = append(t.spans, span{start: t.now(), kind: kind})
	}
}

func (t *tracer) closeTx(txn uint64) {
	if t.on {
		t.spans[t.root].end = t.now()
		t.spans[t.root].txn = txn
	}
}

// start returns the start time of a child span, or 0 when tracing is off.
func (t *tracer) start() int64 {
	if t.on {
		return t.now()
	}
	return 0
}

func (t *tracer) end(kind spanKind, start int64) {
	if t.on {
		t.spans = append(t.spans, span{start: start, end: t.now(), kind: kind})
	}
}

// spanStats are the per-layer numbers the traced pass derives from spans.
type spanStats struct {
	byKind [numSpanKinds][]int64 // durations; roots hold whole-transaction time
	stmt   []int64               // per write transaction: sum of its statement spans
	self   []int64               // per write transaction: root minus children
}

func collectSpans(tracers []*tracer) *spanStats {
	st := &spanStats{}
	for _, t := range tracers {
		for i := 0; i < len(t.spans); {
			root := t.spans[i]
			j := i + 1
			var children, stmts int64
			for ; j < len(t.spans) && !t.spans[j].kind.root(); j++ {
				c := t.spans[j]
				d := c.end - c.start
				st.byKind[c.kind] = append(st.byKind[c.kind], d)
				children += d
				if c.kind != spBegin && c.kind != spCommit {
					stmts += d
				}
			}
			if root.end != 0 { // a failed transaction leaves its root open
				st.byKind[root.kind] = append(st.byKind[root.kind], root.end-root.start)
				if root.kind == spTx {
					st.stmt = append(st.stmt, stmts)
					st.self = append(st.self, root.end-root.start-children)
				}
			}
			i = j
		}
	}
	return st
}

// traceEvery thins the trace file: every transaction of a traced interval is
// timed, one in traceEvery is written.
const traceEvery = 16

// writeTrace writes spans as JSON Lines: trace (client-root), span, parent
// (absent on roots), name, start_ns, end_ns, txn (the engine's transaction id).
func writeTrace(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for c, t := range tracers {
		var root, nth int
		var keep bool
		for i, s := range t.spans {
			if s.kind.root() {
				root, keep = i, nth%traceEvery == 0 && s.end != 0
				nth++
				if keep {
					fmt.Fprintf(w, `{"trace":"%d-%d","span":%d,"name":%q,"start_ns":%d,"end_ns":%d,"txn":%d}`+"\n",
						c, root, i, spanNames[s.kind], s.start, s.end, s.txn)
				}
				continue
			}
			if keep {
				fmt.Fprintf(w, `{"trace":"%d-%d","span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"txn":%d}`+"\n",
					c, root, i, root, spanNames[s.kind], s.start, s.end, t.spans[root].txn)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by nearest rank (0 for no samples).
// It sorts xs in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[int(q*float64(len(xs)-1)+0.5)])
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spanLayers reports the traced intervals' span medians as client.* metrics.
func (r *run) spanLayers() {
	st := collectSpans(r.tracers)
	for kind, name := range map[spanKind]string{
		spBegin: "begin_ns", spGet: "get_ns", spUpdate: "update_ns", spInsert: "insert_ns",
		spDelete: "delete_ns", spCommit: "commit_ns", spRoBegin: "ro_begin_ns",
		spReadGet: "read_get_ns", spReadScan: "read_scan_ns",
	} {
		r.vals["client."+name] = quantile(st.byKind[kind], 0.5)
	}
	r.vals["client.stmt_ns"] = quantile(st.stmt, 0.5)
	r.vals["client.gen_ns"] = quantile(st.self, 0.5)
	r.vals["client.tx_p50_us"] = quantile(st.byKind[spTx], 0.5) / 1e3
}
