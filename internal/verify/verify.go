// Package verify is the one comparator behind both consistency checks of
// the engine: the offline, quiescent core.CheckConsistency and the online,
// snapshot-paced background scrubber (internal/scrub). One kernel routine
// computes a view's expected contents and one scan reads what it stores;
// Compare judges the two as a walk over two key-sorted entry lists, so the
// two checkers cannot drift apart in what they accept or in how they report
// a divergence.
package verify

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/view"
)

// Entry is one (key, decoded stored value) pair of a view relation — the
// same shape view.Maintainer.Recompute produces.
type Entry = view.Entry

// DiffKind classifies one divergence between a view's stored contents and
// its recompute.
type DiffKind uint8

const (
	// DiffMissing: the recompute produces the group but the view has no
	// live row for it.
	DiffMissing DiffKind = iota + 1
	// DiffExtra: the view holds a live row the recompute does not produce.
	DiffExtra
	// DiffMismatch: both sides have the group but the stored values differ.
	DiffMismatch
)

// String names the diff kind for events and error text.
func (k DiffKind) String() string {
	switch k {
	case DiffMissing:
		return "missing"
	case DiffExtra:
		return "extra"
	case DiffMismatch:
		return "mismatch"
	default:
		return fmt.Sprintf("DiffKind(%d)", uint8(k))
	}
}

// Diff is one divergence: the group key, what the recompute wants, and what
// the view actually stores (Want is nil for DiffExtra, Have for DiffMissing).
type Diff struct {
	Kind DiffKind
	Key  []byte
	Want record.Row
	Have record.Row
}

// Error renders the diff as the consistency-check error for view name —
// the message shape CheckConsistency has always reported.
func (d Diff) Error(name string) error {
	switch d.Kind {
	case DiffMissing:
		return fmt.Errorf("core: view %q key %x: stored (absent), recompute %v", name, d.Key, d.Want)
	case DiffExtra:
		return fmt.Errorf("core: view %q key %x: stored %v, recompute (absent)", name, d.Key, d.Have)
	default:
		return fmt.Errorf("core: view %q key %x: stored %v, recompute %v", name, d.Key, d.Have, d.Want)
	}
}

// Detail renders the expected-vs-actual half of the diff for trace events
// (the key is carried separately there).
func (d Diff) Detail() string {
	switch d.Kind {
	case DiffMissing:
		return fmt.Sprintf("expected %v, actual missing", d.Want)
	case DiffExtra:
		return fmt.Sprintf("expected absent, actual %v", d.Have)
	default:
		return fmt.Sprintf("expected %v, actual %v", d.Want, d.Have)
	}
}

// Walk judges a view's stored rows, streamed in key order, against Want, the
// view's expected contents from a recompute (key-sorted, as recompute output
// is). Feed every stored row to Stored in ascending key order — a B-tree or
// snapshot scan already yields that order — then call Done. It records at most
// Max divergences (Max <= 0: unlimited).
type Walk struct {
	Want []Entry
	Max  int

	i     int // next unmatched Want entry
	diffs []Diff
}

// Stored judges one stored row. key and row are not retained: the caller may
// reuse both once Stored returns, and only a diff copies them. It reports
// whether the walk wants more rows — false once Max diffs are recorded.
func (w *Walk) Stored(key []byte, row record.Row) bool {
	for ; w.i < len(w.Want) && !w.full() && record.CompareKeys(w.Want[w.i].Key, key) < 0; w.i++ {
		w.missing()
	}
	switch {
	case w.full():
	case w.i < len(w.Want) && record.CompareKeys(w.Want[w.i].Key, key) == 0:
		if want := w.Want[w.i]; record.CompareRows(row, want.Val) != 0 {
			w.diffs = append(w.diffs, Diff{Kind: DiffMismatch, Key: want.Key, Want: want.Val, Have: row.Clone()})
		}
		w.i++
	default:
		w.diffs = append(w.diffs, Diff{Kind: DiffExtra, Key: append([]byte(nil), key...), Have: row.Clone()})
	}
	return !w.full()
}

// Done ends the walk: every expected entry past the last stored row is
// missing. It returns the divergences found, in key order.
func (w *Walk) Done() []Diff {
	for ; w.i < len(w.Want) && !w.full(); w.i++ {
		w.missing()
	}
	return w.diffs
}

func (w *Walk) full() bool { return w.Max > 0 && len(w.diffs) >= w.Max }

func (w *Walk) missing() {
	want := w.Want[w.i]
	w.diffs = append(w.diffs, Diff{Kind: DiffMissing, Key: want.Key, Want: want.Val})
}
