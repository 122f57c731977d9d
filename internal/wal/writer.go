package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/metrics"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrInjectedFault is returned by writes once the fault-injection budget is
// exhausted (tests only).
var ErrInjectedFault = errors.New("wal: injected write fault")

// SyncMode selects the durability of commits.
type SyncMode int

const (
	// SyncNone flushes to the OS on commit but never calls fsync. Fast;
	// survives process crash but not machine crash. The default for tests
	// and benchmarks (the paper's experiments study concurrency, not disks).
	SyncNone SyncMode = iota
	// SyncData calls fsync on every group commit.
	SyncData
)

// Writer appends records to one log generation file.
//
// Append is cheap and buffered; Sync implements group commit: concurrent
// committers coalesce onto one flush+fsync, and a committer whose LSN is
// already durable returns immediately.
type Writer struct {
	mu        sync.Mutex // guards buf, nextLSN, appendedLSN, written budget
	f         fault.File
	buf       []byte
	spare     []byte // flushed buffer recycled by Sync (double buffering)
	nextLSN   uint64
	appended  uint64 // LSN of last record placed in buf
	mode      SyncMode
	failAfter int64 // bytes remaining before injected failure; -1 = disabled
	failed    bool

	flushMu sync.Mutex // serializes flush+fsync
	durable uint64     // LSN of last record known flushed (and fsynced in SyncData)
	durMu   sync.Mutex // guards durable reads outside flushMu

	// met and tracer observe appends, group-commit batching, and flush/fsync
	// latency; both may be nil. clock times the flushes they observe. Set via
	// SetObserver before concurrent use.
	met    *metrics.WALMetrics
	tracer metrics.Tracer
	clock  *metrics.Clock
}

// SetObserver attaches metrics and a tracer to the writer, and the clock that
// times its flushes. The engine calls it right after creating a writer (Open,
// recovery hand-off, and the fresh generation a Checkpoint swaps in), before
// the writer sees concurrent use, with the DB's clock, so a flush's mark and
// its events share the DB's timebase.
func (w *Writer) SetObserver(m *metrics.WALMetrics, tracer metrics.Tracer, clock *metrics.Clock) {
	w.met = m
	w.tracer = tracer
	w.clock = clock
}

// Create creates (truncating) the log file at path. firstLSN is the LSN the
// next appended record receives (1 for a fresh generation).
func Create(path string, firstLSN uint64, mode SyncMode) (*Writer, error) {
	return CreateFS(fault.OS{}, path, firstLSN, mode)
}

// CreateFS is Create on an injectable filesystem.
func CreateFS(fsys fault.FS, path string, firstLSN uint64, mode SyncMode) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	return &Writer{f: f, nextLSN: firstLSN, appended: firstLSN - 1, durable: firstLSN - 1, mode: mode, failAfter: -1}, nil
}

// OpenAppend opens an existing log file for appending after recovery. The
// file must already be truncated to its last good record (see Repair);
// nextLSN is the LSN to assign to the next record.
func OpenAppend(path string, nextLSN uint64, mode SyncMode) (*Writer, error) {
	return OpenAppendFS(fault.OS{}, path, nextLSN, mode)
}

// OpenAppendFS is OpenAppend on an injectable filesystem.
func OpenAppendFS(fsys fault.FS, path string, nextLSN uint64, mode SyncMode) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open append: %w", err)
	}
	return &Writer{f: f, nextLSN: nextLSN, appended: nextLSN - 1, durable: nextLSN - 1, mode: mode, failAfter: -1}, nil
}

// Append assigns the record an LSN and buffers it. The record is not durable
// until a subsequent Sync covers its LSN.
func (w *Writer) Append(r *Record) (uint64, error) {
	lsn, _, err := w.AppendSized(r)
	return lsn, err
}

// AppendSized is Append reporting the record's on-log footprint (frame
// header + encoded payload) so callers can attribute WAL volume.
func (w *Writer) AppendSized(r *Record) (uint64, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return 0, 0, ErrInjectedFault
	}
	r.LSN = w.nextLSN
	w.nextLSN++
	// Encode in place after a reserved 8-byte frame header, so no per-record
	// payload slice is allocated.
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	w.buf = r.Encode(w.buf)
	payload := w.buf[start+8:]
	binary.LittleEndian.PutUint32(w.buf[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:start+8], crc32.Checksum(payload, crcTable))
	w.appended = r.LSN
	if w.met != nil {
		w.met.Appends.Add(1)
	}
	return r.LSN, len(payload) + 8, nil
}

// Sync makes every appended record durable (group commit). It returns once
// the record with LSN upTo (or newer) is flushed — and fsynced under
// SyncData. Pass 0 to sync everything appended so far.
func (w *Writer) Sync(upTo uint64) error { return w.sync(upTo, 0) }

// SyncTxn is Sync attributed to a committing transaction: when this call
// performs the physical flush (rather than coalescing onto another
// committer's), the group-commit trace event carries txn so the flight
// recorder can link the flush into the transaction's causal span.
func (w *Writer) SyncTxn(upTo uint64, txn id.Txn) error { return w.sync(upTo, txn) }

func (w *Writer) sync(upTo uint64, by id.Txn) error {
	if upTo == 0 {
		w.mu.Lock()
		upTo = w.appended
		w.mu.Unlock()
	}
	prevDurable := w.durableLSN()
	if prevDurable >= upTo {
		if w.met != nil {
			w.met.CoalescedSyncs.Add(1)
		}
		return nil
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	prevDurable = w.durableLSN()
	if prevDurable >= upTo { // another committer covered us while we waited
		if w.met != nil {
			w.met.CoalescedSyncs.Add(1)
		}
		return nil
	}
	// Two clock readings per flush, start and end, shared by the stall
	// watchdog's mark, the flush histogram and the group-commit event (plus
	// the fsync's own start under SyncData).
	observed := w.met != nil || w.tracer != nil
	var start int64
	if observed {
		start = w.clock.Now()
	}
	// Mark the flush in progress for the stall watchdog: a long-lived mark
	// means commits are queueing behind a flush that is not advancing.
	w.met.BeginFlush(start)
	defer w.met.EndFlush()
	// Steal the buffer; appenders continue into the spare one (double
	// buffering keeps the steady state allocation-free).
	w.mu.Lock()
	buf := w.buf
	w.buf = w.spare
	w.spare = nil
	target := w.appended
	w.mu.Unlock()
	if len(buf) > 0 {
		if err := w.write(buf); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.spare = buf[:0]
	w.mu.Unlock()
	var fsyncStart int64
	if w.mode == SyncData {
		if w.met != nil {
			fsyncStart = w.clock.Now()
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	var end int64
	if observed {
		end = w.clock.Now()
	}
	w.durMu.Lock()
	w.durable = target
	w.durMu.Unlock()
	batch := int64(target - prevDurable)
	if w.met != nil {
		if w.mode == SyncData {
			w.met.Fsync.Observe(time.Duration(end - fsyncStart))
		}
		w.met.ObserveBatch(batch)
		w.met.Flush.Observe(time.Duration(end - start))
	}
	if w.tracer != nil {
		w.tracer.TraceEvent(metrics.Event{
			Type:   metrics.EventGroupCommit,
			Txn:    by,
			Dur:    time.Duration(end - start),
			Rows:   int(batch),
			WallNs: w.clock.WallNs(end),
		})
	}
	return nil
}

func (w *Writer) durableLSN() uint64 {
	w.durMu.Lock()
	defer w.durMu.Unlock()
	return w.durable
}

// write sends bytes to the file honoring the fault-injection budget: when the
// budget ends mid-buffer the prefix is written (a torn tail) and the writer
// enters a permanent failed state.
func (w *Writer) write(p []byte) error {
	w.mu.Lock()
	budget := w.failAfter
	w.mu.Unlock()
	if budget >= 0 && int64(len(p)) > budget {
		p = p[:budget]
		if len(p) > 0 {
			w.f.Write(p) // best-effort torn write
		}
		w.mu.Lock()
		w.failed = true
		w.failAfter = 0
		w.mu.Unlock()
		return ErrInjectedFault
	}
	if budget >= 0 {
		w.mu.Lock()
		w.failAfter -= int64(len(p))
		w.mu.Unlock()
	}
	if _, err := w.f.Write(p); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	return nil
}

// SetFailAfter arms fault injection: after n more bytes reach the file, every
// further write fails and the record stream is torn mid-record. Tests only.
func (w *Writer) SetFailAfter(n int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failAfter = n
	w.failed = false
}

// NextLSN returns the LSN the next appended record will receive.
func (w *Writer) NextLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
}

// Close flushes buffered records and closes the file.
func (w *Writer) Close() error {
	syncErr := w.Sync(0)
	closeErr := w.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
