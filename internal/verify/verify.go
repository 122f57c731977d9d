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

// Compare walks two key-sorted entry lists — want from a recompute, have
// from the view's stored rows — and returns every divergence, up to max
// (max <= 0 means unlimited). Both lists must be sorted by key ascending;
// recompute output and B-tree / snapshot scans already are.
func Compare(want, have []Entry, max int) []Diff {
	var diffs []Diff
	full := func() bool { return max > 0 && len(diffs) >= max }
	i, j := 0, 0
	for i < len(want) && j < len(have) {
		if full() {
			return diffs
		}
		switch c := record.CompareKeys(want[i].Key, have[j].Key); {
		case c < 0:
			diffs = append(diffs, Diff{Kind: DiffMissing, Key: want[i].Key, Want: want[i].Val})
			i++
		case c > 0:
			diffs = append(diffs, Diff{Kind: DiffExtra, Key: have[j].Key, Have: have[j].Val})
			j++
		default:
			if record.CompareRows(have[j].Val, want[i].Val) != 0 {
				diffs = append(diffs, Diff{Kind: DiffMismatch, Key: want[i].Key, Want: want[i].Val, Have: have[j].Val})
			}
			i++
			j++
		}
	}
	for ; i < len(want) && !full(); i++ {
		diffs = append(diffs, Diff{Kind: DiffMissing, Key: want[i].Key, Want: want[i].Val})
	}
	for ; j < len(have) && !full(); j++ {
		diffs = append(diffs, Diff{Kind: DiffExtra, Key: have[j].Key, Have: have[j].Val})
	}
	return diffs
}

// Clip returns the entries of es whose key lies in [lo, hi) — nil bounds
// mean open ends. es must be key-sorted; the scrubber uses this to cut a
// full recompute down to the slice it is verifying this tick.
func Clip(es []Entry, lo, hi []byte) []Entry {
	start := 0
	for start < len(es) && lo != nil && record.CompareKeys(es[start].Key, lo) < 0 {
		start++
	}
	end := start
	for end < len(es) && (hi == nil || record.CompareKeys(es[end].Key, hi) < 0) {
		end++
	}
	return es[start:end]
}
