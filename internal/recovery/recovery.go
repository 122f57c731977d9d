// Package recovery implements restart: load the current generation's
// snapshot, redo the log (including CLRs), determine loser transactions, and
// undo them with fresh compensation records — ARIES specialized to
// memory-resident trees rebuilt from a quiesced snapshot (DESIGN.md §2).
// It also implements the checkpoint that creates a new generation.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/apply"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/fault"
	"repro/internal/id"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Summary reports what restart did.
type Summary struct {
	Gen       uint64 // generation recovered
	Replayed  int    // records redone from the log
	Losers    int    // transactions rolled back
	UndoneOps int    // operations compensated during undo
	Torn      bool   // the log had a torn tail that was truncated
	Fresh     bool   // no prior state existed

	// Phase durations: analysis = snapshot load, redo = one scan of the log
	// replaying every intact record, then the truncate of a torn tail,
	// undo = loser rollback (all zero for a fresh database).
	Analysis time.Duration
	Redo     time.Duration
	Undo     time.Duration
}

// State is a recovered, ready-to-run database image.
type State struct {
	Gen     uint64
	Reg     *apply.Registry
	Trees   map[id.Tree]*btree.Tree
	Log     *wal.Writer
	NextTxn id.Txn
	Summary Summary
}

// Catalog returns the recovered catalog.
func (s *State) Catalog() *catalog.Catalog { return s.Reg.Catalog() }

// txnInfo is what undo needs of one open transaction: the encoded payloads
// of its operations, each followed by its 4-byte length so undo walks them
// newest first, and the LSNs its CLRs already compensated (nil until its
// first CLR).
type txnInfo struct {
	sys    bool
	ops    []byte
	undone map[uint64]bool
}

// analysis is restart's per-record bookkeeping. It holds only the
// transactions still open at the current point of the log: an entry is
// created at TBegin and dropped at TCommit or TAbortEnd, so at the end of the
// log the entries left are the losers.
type analysis struct {
	open   map[id.Txn]*txnInfo
	maxTxn id.Txn
}

// add records rec, which the scan hands over valid only during the call: the
// operations an open transaction keeps are re-encoded into its own arena.
func (a *analysis) add(rec *wal.Record) {
	if rec.Txn > a.maxTxn {
		a.maxTxn = rec.Txn
	}
	ti := a.open[rec.Txn]
	switch {
	case rec.Type == wal.TBegin:
		if ti == nil {
			ti = &txnInfo{}
			a.open[rec.Txn] = ti
		}
		ti.sys = rec.Sys
	case ti == nil:
		// Not open: finished already, or never begun in this log.
	case rec.Type == wal.TCommit || rec.Type == wal.TAbortEnd:
		delete(a.open, rec.Txn)
	case rec.Type == wal.TCLR:
		if ti.undone == nil {
			ti.undone = make(map[uint64]bool)
		}
		ti.undone[rec.UndoneLSN] = true
	default:
		start := len(ti.ops)
		ti.ops = rec.Encode(ti.ops)
		ti.ops = binary.LittleEndian.AppendUint32(ti.ops, uint32(len(ti.ops)-start))
	}
}

// losers returns the transactions still open, newest first. The fixed order
// makes restart append the same records for the same log.
func (a *analysis) losers() []id.Txn {
	ids := make([]id.Txn, 0, len(a.open))
	for tid := range a.open {
		ids = append(ids, tid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	return ids
}

// undo calls fn on every operation of ti not yet compensated, newest first.
func (ti *txnInfo) undo(fn func(op *wal.Record) error) error {
	for end := len(ti.ops); end > 0; {
		n := int(binary.LittleEndian.Uint32(ti.ops[end-4:]))
		op, err := wal.DecodeRecord(ti.ops[end-4-n : end-4])
		if err != nil {
			return err
		}
		end -= 4 + n
		if ti.undone[op.LSN] {
			continue
		}
		if err := fn(op); err != nil {
			return err
		}
	}
	return nil
}

// Run recovers the database in dirPath, creating it if absent.
func Run(dirPath string, mode wal.SyncMode) (*State, error) {
	return RunFS(fault.OS{}, dirPath, mode)
}

// RunFS is Run on an injectable filesystem.
func RunFS(fsys fault.FS, dirPath string, mode wal.SyncMode) (*State, error) {
	if err := fsys.MkdirAll(dirPath, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: mkdir: %w", err)
	}
	dir := wal.Dir{Path: dirPath, FS: fsys}
	gen, fresh, err := dir.Current()
	if err != nil {
		return nil, err
	}
	if fresh {
		return bootstrap(fsys, dir, mode)
	}

	phaseStart := time.Now()
	cat := catalog.New()
	trees := make(map[id.Tree]*btree.Tree)
	var nextTxn id.Txn = 1
	if _, err := fsys.Stat(dir.SnapPath(gen)); err == nil {
		cat, trees, nextTxn, err = snapshot.ReadFS(fsys, dir.SnapPath(gen))
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("recovery: stat snapshot: %w", err)
	}
	analysisDur := time.Since(phaseStart)
	reg, err := apply.NewRegistry(cat)
	if err != nil {
		return nil, err
	}
	source := func(t id.Tree) *btree.Tree {
		tr := trees[t]
		if tr == nil {
			tr = btree.New()
			trees[t] = tr
		}
		return tr
	}

	// Redo pass: replay every intact record in order, then truncate the
	// torn tail so the writer appends after the last of them.
	phaseStart = time.Now()
	an := analysis{open: make(map[id.Txn]*txnInfo)}
	sum := Summary{Gen: gen}
	scanRes, err := wal.RepairFS(fsys, dir.LogPath(gen), func(rec *wal.Record) error {
		an.add(rec)
		sum.Replayed++
		return apply.Apply(reg, source, rec)
	})
	if err != nil {
		return nil, err
	}
	sum.Torn = scanRes.Torn
	sum.Redo = time.Since(phaseStart)

	// Open the log for appending undo records and new work.
	writer, err := wal.OpenAppendFS(fsys, dir.LogPath(gen), scanRes.LastLSN+1, mode)
	if err != nil {
		return nil, err
	}

	// Undo pass: roll back losers, newest transaction and newest operation
	// first, skipping operations already compensated before the crash.
	phaseStart = time.Now()
	for _, tid := range an.losers() {
		ti := an.open[tid]
		sum.Losers++
		err := ti.undo(func(op *wal.Record) error {
			clr, err := apply.Invert(reg, source, op)
			if err != nil {
				return fmt.Errorf("recovery: undo %s: %w", op, err)
			}
			if _, err := writer.Append(clr); err != nil {
				return err
			}
			sum.UndoneOps++
			return nil
		})
		if err != nil {
			return nil, err
		}
		end := &wal.Record{Type: wal.TAbortEnd, Txn: tid, Sys: ti.sys}
		if _, err := writer.Append(end); err != nil {
			return nil, err
		}
	}
	if err := writer.Sync(0); err != nil {
		return nil, err
	}
	sum.Undo = time.Since(phaseStart)
	sum.Analysis = analysisDur

	// Every catalog object must have a tree even if never touched.
	for _, tid := range reg.Catalog().AllTreeIDs() {
		source(tid)
	}
	if an.maxTxn >= nextTxn {
		nextTxn = an.maxTxn + 1
	}
	return &State{
		Gen:     gen,
		Reg:     reg,
		Trees:   trees,
		Log:     writer,
		NextTxn: nextTxn,
		Summary: sum,
	}, nil
}

func bootstrap(fsys fault.FS, dir wal.Dir, mode wal.SyncMode) (*State, error) {
	reg, err := apply.NewRegistry(catalog.New())
	if err != nil {
		return nil, err
	}
	writer, err := wal.CreateFS(fsys, dir.LogPath(1), 1, mode)
	if err != nil {
		return nil, err
	}
	if err := dir.Commit(1); err != nil {
		writer.Close()
		return nil, err
	}
	return &State{
		Gen:     1,
		Reg:     reg,
		Trees:   make(map[id.Tree]*btree.Tree),
		Log:     writer,
		NextTxn: 1,
		Summary: Summary{Gen: 1, Fresh: true},
	}, nil
}

// Checkpoint writes a new generation: a snapshot of the quiesced state, a
// fresh empty log, and an atomically installed manifest. The caller must
// guarantee quiescence (no active transactions) and must stop using the old
// writer. It returns the new generation's writer.
func Checkpoint(dirPath string, oldGen uint64, oldLog *wal.Writer,
	cat *catalog.Catalog, trees map[id.Tree]*btree.Tree, nextTxn id.Txn,
	mode wal.SyncMode) (*wal.Writer, uint64, error) {
	return CheckpointFS(fault.OS{}, dirPath, oldGen, oldLog, cat, trees, nextTxn, mode)
}

// CheckpointFS is Checkpoint on an injectable filesystem.
func CheckpointFS(fsys fault.FS, dirPath string, oldGen uint64, oldLog *wal.Writer,
	cat *catalog.Catalog, trees map[id.Tree]*btree.Tree, nextTxn id.Txn,
	mode wal.SyncMode) (*wal.Writer, uint64, error) {
	dir := wal.Dir{Path: dirPath, FS: fsys}
	if err := oldLog.Close(); err != nil {
		return nil, 0, err
	}
	gen := oldGen + 1
	if err := snapshot.WriteFS(fsys, dir.SnapPath(gen), cat, trees, nextTxn); err != nil {
		return nil, 0, err
	}
	writer, err := wal.CreateFS(fsys, dir.LogPath(gen), 1, mode)
	if err != nil {
		return nil, 0, err
	}
	if err := dir.Commit(gen); err != nil {
		writer.Close()
		return nil, 0, err
	}
	return writer, gen, nil
}
