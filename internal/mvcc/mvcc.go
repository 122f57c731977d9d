// Package mvcc implements the version chain behind snapshot reads (DESIGN.md
// §8). A chain hangs off the B-tree leaf entry of a row mutated since the
// last prune (internal/btree owns the slot): the committed image the chain
// was seeded with, stamped committed versions ordered by commit timestamp,
// and the pending (uncommitted) post-images of in-flight writers. Snapshot
// readers resolve a row at a read timestamp by pure timestamp comparison —
// no lock-manager traffic — while writers pin a pending entry per logged
// operation and stamp it at commit.
//
// An entry with no chain is fully committed at or below every live reader's
// timestamp, so its inline value stands. Versions at or below the snapshot
// horizon fold into the chain's base in two places: a commit that stamps a
// chain grown past a fixed length compacts it on the spot, and the pruner
// walks the work list of live chains, folds each, and has the tree drop
// chains that become quiescent.
package mvcc

import (
	"cmp"
	"errors"
	"slices"
	"sync"

	"repro/internal/id"
	"repro/internal/wal"
)

var errNoFolder = errors.New("mvcc: no delta folder supplied")

// Version is one committed state of a row. Either a full post-image
// (Val/Ghost, or Absent for a delete) or an escrow delta set: concurrent
// escrow folds commit in an order that need not match their commit
// timestamps, so folds are versioned as commutative deltas rather than full
// values and layered onto the newest full image at resolution time.
type Version struct {
	TS     uint64
	Full   bool
	Val    []byte
	Ghost  bool
	Absent bool
	Deltas []wal.ColDelta
}

// pending is one in-flight operation's provisional version: the post-image
// computed when the operation was logged, keyed by the operation's WAL record
// so commit can stamp and rollback can unpin exactly this entry.
type pending struct {
	rec *wal.Record
	txn id.Txn
	ver Version // TS zero until stamped
}

// Chain is one row's version history since the chain was created.
type Chain struct {
	mu       sync.Mutex
	base     Version // committed image when the chain was created (TS 0)
	versions []Version
	oldest   uint64 // smallest TS in versions, when it is non-empty
	pend     []pending
}

// NewChain returns a chain whose base is the given committed image (ok=false:
// the row does not exist). val is copied.
func NewChain(val []byte, ghost, ok bool) *Chain {
	if !ok {
		return &Chain{base: Version{Full: true, Absent: true}}
	}
	return &Chain{base: Version{Full: true, Val: append([]byte(nil), val...), Ghost: ghost}}
}

// Pin records one in-flight operation; rec identifies it for Stamp/Unpin.
// The tree calls it under its latch, before the operation mutates the entry.
func (c *Chain) Pin(rec *wal.Record, txn id.Txn) {
	c.mu.Lock()
	c.pend = append(c.pend, pending{rec: rec, txn: txn, ver: pendingVersion(rec)})
	c.mu.Unlock()
}

// pendingVersion computes the provisional version an operation will commit:
// the post-image for row operations, the delta set for escrow folds.
func pendingVersion(rec *wal.Record) Version {
	switch rec.Type {
	case wal.TDelete:
		return Version{Full: true, Absent: true}
	case wal.TEscrowFold:
		return Version{Deltas: rec.Deltas}
	default:
		return Version{Full: true, Val: rec.NewVal, Ghost: rec.NewGhost}
	}
}

// take removes and returns rec's pending entry.
func (c *Chain) take(rec *wal.Record) (Version, bool) {
	for i := range c.pend {
		if c.pend[i].rec == rec {
			v := c.pend[i].ver
			c.pend = append(c.pend[:i], c.pend[i+1:]...)
			return v, true
		}
	}
	return Version{}, false
}

// Stamp promotes rec's pending entry to a committed version at ts and returns
// the chain's length (base + versions + pending) afterwards. Commit calls it
// once per pinned operation, after the commit record is durable and before
// the commit timestamp is finished at the oracle.
func (c *Chain) Stamp(rec *wal.Record, ts uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.take(rec); ok {
		v.TS = ts
		if len(c.versions) == 0 || ts < c.oldest {
			c.oldest = ts
		}
		c.versions = append(c.versions, v)
	}
	return 1 + len(c.versions) + len(c.pend)
}

// Unpin discards rec's pending entry (rollback of an unstamped operation).
func (c *Chain) Unpin(rec *wal.Record) {
	c.mu.Lock()
	c.take(rec)
	c.mu.Unlock()
}

// Resolved is the outcome of resolving a row at a read timestamp.
type Resolved struct {
	// Present is false when the newest full image at the timestamp is a
	// delete (or the row never existed). Deltas may still follow it: they
	// fold over an empty group row.
	Present bool
	// Ghost is the image's ghost bit.
	Ghost bool
	// Val is the newest full image at or below the timestamp, nil when not
	// Present. The slice aliases chain-owned memory only for stamped
	// versions, which are immutable once appended; callers must not modify
	// it.
	Val []byte
	// Deltas are the escrow deltas committed after the full image and at or
	// below the timestamp, compacted for one fold: each column's int deltas
	// summed into one, ahead of the float deltas, which stay one per
	// committed delta in chain order. Summing ints is exact (int64 addition
	// wraps alike in any grouping); summing floats is not, so they fold as
	// they would one at a time. A cell's deltas are all int or all float (a
	// SUM cell takes its argument's static kind; an X-lock fold of a zero
	// float logs an int zero, which moves no float), so putting the int sums
	// first changes no cell either. The length is the row's int columns plus
	// its float deltas, not the number of versions.
	Deltas []wal.ColDelta
	ints   int // Deltas[:ints] are the int sums
}

func resolved(v *Version) Resolved {
	return Resolved{Present: !v.Absent, Ghost: v.Ghost, Val: v.Val}
}

// add merges ds into the compacted delta overlay.
func (r *Resolved) add(ds []wal.ColDelta) {
next:
	for _, d := range ds {
		if d.IsFloat {
			r.Deltas = append(r.Deltas, d)
			continue
		}
		for i := range r.Deltas[:r.ints] {
			if r.Deltas[i].Col == d.Col {
				r.Deltas[i].Int += d.Int
				continue next
			}
		}
		r.Deltas = slices.Insert(r.Deltas, r.ints, d)
		r.ints++
	}
}

// Resolve returns the row's state at ts. self, when nonzero, overlays that
// transaction's own pending operations so a snapshot transaction reads its
// own writes.
func (c *Chain) Resolve(ts uint64, self id.Txn) Resolved {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := resolved(&c.base)
	var fullTS uint64
	for i := range c.versions {
		v := &c.versions[i]
		if v.Full && v.TS <= ts && v.TS >= fullTS {
			res = resolved(v)
			fullTS = v.TS
		}
	}
	// A hot group's chain carries tens of delta versions: size the overlay
	// once, from the widest version's int deltas (every fold of a group hits
	// the same columns) and the float deltas.
	ints, floats := 0, 0
	for i := range c.versions {
		if v := &c.versions[i]; !v.Full && v.TS <= ts && v.TS > fullTS {
			n := 0
			for _, d := range v.Deltas {
				if d.IsFloat {
					floats++
				} else {
					n++
				}
			}
			ints = max(ints, n)
		}
	}
	if ints+floats > 0 {
		res.Deltas = make([]wal.ColDelta, 0, ints+floats)
		for i := range c.versions {
			if v := &c.versions[i]; !v.Full && v.TS <= ts && v.TS > fullTS {
				res.add(v.Deltas)
			}
		}
	}
	if self != id.None {
		for i := range c.pend {
			p := &c.pend[i]
			if p.txn != self {
				continue
			}
			if p.ver.Full {
				res = resolved(&p.ver)
			} else {
				res.add(p.ver.Deltas)
			}
		}
	}
	return res
}

// Pinned reports whether any operation is in flight on the row.
func (c *Chain) Pinned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pend) > 0
}

// Quiescent reports whether the chain holds nothing but its base, which then
// equals the entry's inline image: the tree may drop the chain.
func (c *Chain) Quiescent() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.versions) == 0 && len(c.pend) == 0
}

// Settled reports whether the chain's state at ts is final and current:
// nothing in flight and nothing committed after ts. The entry's inline image
// must then equal Resolve(ts) — the read-path oracle's premise.
func (c *Chain) Settled(ts uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.versions {
		if c.versions[i].TS > ts {
			return false
		}
	}
	return len(c.pend) == 0
}

// FoldFunc folds escrow deltas into an encoded view row of tree, returning
// the new encoding and its group-empty (ghost) bit. A nil val stands for an
// absent row: the deltas fold over an empty group. The engine supplies it so
// chains stay ignorant of row encodings and view metadata.
type FoldFunc func(tree id.Tree, val []byte, deltas []wal.ColDelta) (newVal []byte, ghost bool, err error)

// Dirty is one live chain and the entry it hangs off: the pruner's unit of
// work.
type Dirty struct {
	Tree  id.Tree
	Key   []byte
	Chain *Chain
}

// Prune folds every version at or below horizon into the chain's base,
// oldest first, returning how many versions it folded away. It compacts the
// chain in place and returns at once when no version is that old. Safe
// concurrently with Pin/Stamp/Resolve.
func (d Dirty) Prune(horizon uint64, fold FoldFunc) int {
	ch := d.Chain
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if len(ch.versions) == 0 || ch.oldest > horizon {
		return 0
	}
	// Order the chain by timestamp, so the prunable versions are a prefix.
	// Stamps arrive almost in timestamp order, so this rarely moves anything;
	// the sort is stable, so one transaction's ops keep their log order.
	byTS := func(a, b Version) int { return cmp.Compare(a.TS, b.TS) }
	if !slices.IsSortedFunc(ch.versions, byTS) {
		slices.SortStableFunc(ch.versions, byTS)
	}
	old := 0
	for old < len(ch.versions) && ch.versions[old].TS <= horizon {
		old++
	}
	// The newest full image at or below the horizon supersedes everything
	// before it: resolution only overlays deltas newer than the full version
	// it starts from, so older versions — full or delta — prune for free.
	base := ch.base
	start := 0
	for i, v := range ch.versions[:old] {
		if v.Full {
			base = Version{Full: true, Val: v.Val, Ghost: v.Ghost, Absent: v.Absent}
			start = i + 1
		}
	}
	// Everything after the newest full image is a delta. Escrow deltas
	// commute and FoldFunc takes a slice, so the whole surviving run folds in
	// one call — hot view-row chains carry hundreds of deltas per pass, and
	// folding them one at a time made prune passes dominate allocs/op.
	n := 0
	for _, v := range ch.versions[start:old] {
		n += len(v.Deltas)
	}
	folded := old
	if n > 0 {
		deltas := make([]wal.ColDelta, 0, n)
		for _, v := range ch.versions[start:old] {
			deltas = append(deltas, v.Deltas...)
		}
		var (
			nv    []byte
			ghost bool
			err   = errNoFolder
		)
		if fold != nil {
			nv, ghost, err = fold(d.Tree, base.Val, deltas)
		}
		if err != nil {
			// Folding failed; keep the delta run unpruned, so the base never
			// skips over a delta.
			folded = start
		} else {
			base = Version{Full: true, Val: nv, Ghost: ghost}
		}
	}
	ch.base = base
	rest := copy(ch.versions, ch.versions[folded:])
	clear(ch.versions[rest:])
	ch.versions = ch.versions[:rest]
	if c := cap(ch.versions); c > 256 && rest < c/4 {
		// The chain grew long behind an old snapshot: let go of its array.
		ch.versions = append([]Version(nil), ch.versions...)
	}
	if rest > 0 {
		ch.oldest = ch.versions[0].TS
	}
	return folded
}

// WorkList is the pruner's queue of live chains: every chain enters it when
// the tree creates it and leaves when the tree drops it, so its length is the
// number of live chains. FIFO, so successive partial passes rotate through
// every chain. The queue is a ring and a rotation reuses one batch buffer, so
// the steady state — chains taken off the front and put back at the tail —
// allocates nothing.
type WorkList struct {
	mu   sync.Mutex
	ring []Dirty // len(ring) is the capacity; n entries from head, wrapping
	head int
	n    int

	rot   sync.Mutex // serializes Rotate, which owns batch
	batch []Dirty
}

// Add appends chains to the back of the queue.
func (w *WorkList) Add(ds ...Dirty) {
	w.mu.Lock()
	for _, d := range ds {
		w.push(d)
	}
	w.mu.Unlock()
}

// push appends d, doubling the ring when it is full. Caller holds w.mu.
func (w *WorkList) push(d Dirty) {
	if w.n == len(w.ring) {
		grown := make([]Dirty, max(2*len(w.ring), 16))
		for i := 0; i < w.n; i++ {
			grown[i] = w.ring[(w.head+i)%len(w.ring)]
		}
		w.ring, w.head = grown, 0
	}
	w.ring[(w.head+w.n)%len(w.ring)] = d
	w.n++
}

// Rotate takes up to n chains off the front (n <= 0: all), calls keep on
// each outside the queue's mutex, and puts the ones keep returns true for
// back at the tail. Chains added meanwhile queue behind the taken ones.
func (w *WorkList) Rotate(n int, keep func(Dirty) bool) {
	w.rot.Lock()
	defer w.rot.Unlock()
	w.mu.Lock()
	if n <= 0 || n > w.n {
		n = w.n
	}
	batch := w.batch[:0]
	for ; n > 0; n-- {
		batch = append(batch, w.ring[w.head])
		w.ring[w.head] = Dirty{}
		w.head = (w.head + 1) % len(w.ring)
		w.n--
	}
	w.mu.Unlock()
	kept := batch[:0]
	for _, d := range batch {
		if keep(d) {
			kept = append(kept, d)
		}
	}
	w.Add(kept...)
	clear(batch)
	w.batch = batch[:0]
}

// Len returns the number of queued chains.
func (w *WorkList) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}
