// Package view implements the paper's primary contribution as a pure
// library: compiled maintenance plans for indexed views.
//
// Given a view definition, a Maintainer computes — without touching locks,
// logs, or trees — everything the engine needs to maintain the view
// incrementally inside a user transaction:
//
//   - which view row a source-row change touches (the group key),
//   - the signed contributions of the change to each aggregate cell
//     (escrowable SUM/COUNT deltas vs. MIN/MAX values needing X locks),
//   - the stored-row cell layout, fold arithmetic, and ghost criterion,
//   - projection/join row derivations, and
//   - the recompute-from-scratch oracle used by deferred maintenance,
//     view-less query baselines, and the consistency checker.
//
// The engine (internal/core) supplies concurrency control, logging, and
// storage around these primitives.
package view

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/escrow"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/wal"
)

// ErrSchema reports a view/table mismatch discovered while compiling.
var ErrSchema = errors.New("view: schema mismatch")

// Maintainer is a compiled maintenance plan for one view.
type Maintainer struct {
	V     *catalog.View
	Left  *catalog.Table
	Right *catalog.Table // nil unless the view joins two tables

	// Aggregate views: cell layout of the stored value row.
	// Cell 0 is always the hidden COUNT(*) that tracks group existence.
	// aggOffsets[i] is the first cell of aggregate i; SUM aggregates own two
	// cells (non-NULL count, running sum) so an all-NULL group reads as
	// SQL NULL; COUNT/COUNT(*)/MIN/MAX own one.
	aggOffsets []int
	cells      int
}

// Compile builds the maintenance plan, validating the view against its
// tables.
func Compile(v *catalog.View, left, right *catalog.Table) (*Maintainer, error) {
	if v.Left != left.Name {
		return nil, fmt.Errorf("%w: view %q is over %q, got table %q", ErrSchema, v.Name, v.Left, left.Name)
	}
	if v.Join() {
		if right == nil || v.Right != right.Name {
			return nil, fmt.Errorf("%w: view %q joins %q", ErrSchema, v.Name, v.Right)
		}
	} else if right != nil {
		return nil, fmt.Errorf("%w: view %q has no join table", ErrSchema, v.Name)
	}
	m := &Maintainer{V: v, Left: left, Right: right}
	if v.Kind == catalog.ViewAggregate {
		m.cells = 1 // hidden COUNT(*)
		m.aggOffsets = make([]int, len(v.Aggs))
		for i, a := range v.Aggs {
			m.aggOffsets[i] = m.cells
			if a.Func == expr.AggSum || a.Func == expr.AggAvg {
				m.cells += 2 // (non-NULL count, running sum)
			} else {
				m.cells++
			}
		}
	}
	if err := m.probeTypes(); err != nil {
		return nil, err
	}
	return m, nil
}

// probeTypes type-checks the view's expressions against the source schema
// by evaluating them over a sample row of schema-typed zero values, so type
// errors surface at CREATE VIEW time rather than at the first DML.
func (m *Maintainer) probeTypes() error {
	sample := make(record.Row, 0, m.SourceWidth())
	appendZero := func(cols []catalog.Column) {
		for _, c := range cols {
			switch c.Kind {
			case record.KindBool:
				sample = append(sample, record.Bool(false))
			case record.KindInt64:
				sample = append(sample, record.Int(0))
			case record.KindFloat64:
				sample = append(sample, record.Float(0))
			case record.KindString:
				sample = append(sample, record.Str(""))
			case record.KindBytes:
				sample = append(sample, record.Bytes(nil))
			default:
				sample = append(sample, record.Null())
			}
		}
	}
	appendZero(m.Left.Cols)
	if m.Right != nil {
		appendZero(m.Right.Cols)
	}
	if m.V.Where != nil {
		v, err := m.V.Where.Eval(sample)
		if err != nil {
			return fmt.Errorf("%w: WHERE of view %q: %v", ErrSchema, m.V.Name, err)
		}
		if !v.IsNull() && v.Kind() != record.KindBool {
			return fmt.Errorf("%w: WHERE of view %q is %s, not BOOL", ErrSchema, m.V.Name, v.Kind())
		}
	}
	for i, a := range m.V.Aggs {
		if a.Func == expr.AggCountRows {
			continue
		}
		v, err := a.Arg.Eval(sample)
		if err != nil {
			return fmt.Errorf("%w: aggregate %d of view %q: %v", ErrSchema, i, m.V.Name, err)
		}
		switch a.Func {
		case expr.AggSum, expr.AggAvg:
			if _, ok := v.Numeric(); !ok && !v.IsNull() {
				return fmt.Errorf("%w: %s argument of view %q is %s, not numeric",
					ErrSchema, a.Func, m.V.Name, v.Kind())
			}
		}
	}
	return nil
}

// SourceWidth is the number of columns in a source row.
func (m *Maintainer) SourceWidth() int {
	w := len(m.Left.Cols)
	if m.Right != nil {
		w += len(m.Right.Cols)
	}
	return w
}

// Matches evaluates the view's WHERE clause over a source row.
func (m *Maintainer) Matches(src record.Row) (bool, error) {
	return expr.EvalBool(m.V.Where, src)
}

// GroupRow extracts the grouping column values from a source row.
func (m *Maintainer) GroupRow(src record.Row) (record.Row, error) {
	out := make(record.Row, len(m.V.GroupByCols))
	for i, c := range m.V.GroupByCols {
		if c < 0 || c >= len(src) {
			return nil, fmt.Errorf("%w: group column %d of %d", ErrSchema, c, len(src))
		}
		out[i] = src[c]
	}
	return out, nil
}

// GroupKey returns the encoded view key for a source row's group. It encodes
// straight from the source columns (no intermediate group row), pre-sizing
// for the common fixed-width kinds.
func (m *Maintainer) GroupKey(src record.Row) ([]byte, error) {
	return m.AppendGroupKey(make([]byte, 0, 9*len(m.V.GroupByCols)), src)
}

// AppendGroupKey appends the encoded view key for src's group to dst: the
// view's one group-key encoding, for callers that reuse a buffer.
func (m *Maintainer) AppendGroupKey(dst []byte, src record.Row) ([]byte, error) {
	for _, c := range m.V.GroupByCols {
		if c < 0 || c >= len(src) {
			return nil, fmt.Errorf("%w: group column %d of %d", ErrSchema, c, len(src))
		}
		dst = record.AppendKey(dst, src[c])
	}
	return dst, nil
}

// Contribution is the effect of one source-row change on one aggregate.
type Contribution struct {
	// AggIndex is the aggregate's position in the view definition.
	AggIndex int
	// Escrowable contributions carry signed cell deltas; MIN/MAX carry the
	// evaluated argument value instead.
	Escrowable bool
	// Cells are the (cell offset, delta) pairs for escrowable aggregates.
	Cells []CellDelta
	// Value is the evaluated argument for MIN/MAX (may be NULL).
	Value record.Value
}

// CellDelta pairs a stored-row cell offset with a signed delta.
type CellDelta struct {
	Cell  uint32
	Delta escrow.Delta
}

// Contributions computes the signed effect of adding (sign=+1) or removing
// (sign=-1) a matching source row: the hidden-count delta plus one
// Contribution per aggregate.
func (m *Maintainer) Contributions(src record.Row, sign int) (CellDelta, []Contribution, error) {
	if sign != 1 && sign != -1 {
		return CellDelta{}, nil, fmt.Errorf("view: sign must be ±1, got %d", sign)
	}
	hidden := CellDelta{Cell: 0, Delta: escrow.Delta{Int: int64(sign)}}
	out := make([]Contribution, 0, len(m.V.Aggs))
	// One flat backing array serves every aggregate's Cells slice (at most
	// two cells per aggregate), so the loop never allocates per aggregate.
	flat := make([]CellDelta, 0, 2*len(m.V.Aggs))
	for i, a := range m.V.Aggs {
		off := uint32(m.aggOffsets[i])
		from := len(flat)
		c := Contribution{AggIndex: i, Escrowable: a.Func.Escrowable()}
		switch a.Func {
		case expr.AggCountRows:
			flat = append(flat, CellDelta{Cell: off, Delta: escrow.Delta{Int: int64(sign)}})
		case expr.AggCount:
			v, err := a.Arg.Eval(src)
			if err != nil {
				return CellDelta{}, nil, err
			}
			if !v.IsNull() {
				flat = append(flat, CellDelta{Cell: off, Delta: escrow.Delta{Int: int64(sign)}})
			}
		case expr.AggSum, expr.AggAvg:
			v, err := a.Arg.Eval(src)
			if err != nil {
				return CellDelta{}, nil, err
			}
			if !v.IsNull() {
				var d escrow.Delta
				switch v.Kind() {
				case record.KindInt64:
					d.Int = int64(sign) * v.AsInt()
				case record.KindFloat64:
					d.Float = float64(sign) * v.AsFloat()
				default:
					return CellDelta{}, nil, fmt.Errorf("%w: %s over %s", ErrSchema, a.Func, v.Kind())
				}
				flat = append(flat,
					CellDelta{Cell: off, Delta: escrow.Delta{Int: int64(sign)}}, // non-NULL count
					CellDelta{Cell: off + 1, Delta: d})                          // running sum
			}
		case expr.AggMin, expr.AggMax:
			v, err := a.Arg.Eval(src)
			if err != nil {
				return CellDelta{}, nil, err
			}
			c.Value = v
		default:
			return CellDelta{}, nil, fmt.Errorf("view: unknown aggregate %v", a.Func)
		}
		if len(flat) > from {
			c.Cells = flat[from:len(flat):len(flat)]
		}
		out = append(out, c)
	}
	return hidden, out, nil
}

// HasMinMax reports whether any aggregate needs X-lock maintenance even
// under the escrow strategy.
func (m *Maintainer) HasMinMax() bool {
	for _, a := range m.V.Aggs {
		if !a.Func.Escrowable() {
			return true
		}
	}
	return false
}

// Cells returns the stored value row width for aggregate views.
func (m *Maintainer) Cells() int { return m.cells }

// AggOffset returns the first stored cell of aggregate i.
func (m *Maintainer) AggOffset(i int) int { return m.aggOffsets[i] }

// NewGroupRow returns the stored value row for a brand-new (empty) group:
// zero counts, zero sums, NULL extrema.
func (m *Maintainer) NewGroupRow() record.Row {
	out := make(record.Row, m.cells)
	out[0] = record.Int(0)
	for i, a := range m.V.Aggs {
		off := m.aggOffsets[i]
		switch a.Func {
		case expr.AggCountRows, expr.AggCount:
			out[off] = record.Int(0)
		case expr.AggSum, expr.AggAvg:
			out[off] = record.Int(0)   // non-NULL count
			out[off+1] = record.Int(0) // running sum (kind fixed on first delta)
		default:
			out[off] = record.Null()
		}
	}
	return out
}

// ApplyFold applies logged fold deltas to a stored value row, returning the
// new row. It is the single definition of fold arithmetic, used by the
// commit path, rollback (with negated deltas), and recovery redo. ApplyFold
// takes ownership of stored: cells are updated in place and the same slice
// is returned, so callers must pass a row they do not reuse.
func (m *Maintainer) ApplyFold(stored record.Row, deltas []wal.ColDelta) (record.Row, error) {
	out := stored
	for _, d := range deltas {
		if int(d.Col) >= len(out) {
			return nil, fmt.Errorf("%w: fold cell %d of %d", ErrSchema, d.Col, len(out))
		}
		cur := out[d.Col]
		switch {
		case d.IsFloat:
			base := 0.0
			switch cur.Kind() {
			case record.KindFloat64:
				base = cur.AsFloat()
			case record.KindInt64:
				base = float64(cur.AsInt()) // kind promotion on first float delta
			case record.KindNull:
			default:
				return nil, fmt.Errorf("%w: float delta on %s cell", ErrSchema, cur.Kind())
			}
			out[d.Col] = record.Float(base + d.Float)
		default:
			switch cur.Kind() {
			case record.KindInt64:
				out[d.Col] = record.Int(cur.AsInt() + d.Int)
			case record.KindFloat64:
				out[d.Col] = record.Float(cur.AsFloat() + float64(d.Int))
			case record.KindNull:
				out[d.Col] = record.Int(d.Int)
			default:
				return nil, fmt.Errorf("%w: int delta on %s cell", ErrSchema, cur.Kind())
			}
		}
	}
	return out, nil
}

// GroupEmpty reports whether a stored value row describes an empty group
// (hidden COUNT(*) is zero) — the fold-time ghost criterion.
func (m *Maintainer) GroupEmpty(stored record.Row) (bool, error) {
	if len(stored) == 0 || stored[0].Kind() != record.KindInt64 {
		return false, fmt.Errorf("%w: stored row lacks hidden count", ErrSchema)
	}
	return stored[0].AsInt() == 0, nil
}

// OutputRow materializes the view's user-visible output row for one stored
// group: the group column values (decoded from the view key) followed by the
// aggregate results in definition order. This is the source row a view
// stacked on this one evaluates its own expressions against, matching the
// schema catalog.SourceTable derives.
func (m *Maintainer) OutputRow(key []byte, stored record.Row) (record.Row, error) {
	group, err := record.DecodeKey(key)
	if err != nil {
		return nil, fmt.Errorf("%w: view %q group key: %v", ErrSchema, m.V.Name, err)
	}
	if len(group) != len(m.V.GroupByCols) {
		return nil, fmt.Errorf("%w: view %q key has %d group columns, want %d",
			ErrSchema, m.V.Name, len(group), len(m.V.GroupByCols))
	}
	res, err := m.Result(stored)
	if err != nil {
		return nil, err
	}
	return append(group, res...), nil
}

// Result maps a stored value row to the user-visible aggregate results, in
// definition order: SUM with a zero non-NULL count reads as NULL.
func (m *Maintainer) Result(stored record.Row) (record.Row, error) {
	if len(stored) != m.cells {
		return nil, fmt.Errorf("%w: stored row has %d cells, want %d", ErrSchema, len(stored), m.cells)
	}
	out := make(record.Row, len(m.V.Aggs))
	for i, a := range m.V.Aggs {
		off := m.aggOffsets[i]
		switch a.Func {
		case expr.AggSum:
			if stored[off].Kind() == record.KindInt64 && stored[off].AsInt() == 0 {
				out[i] = record.Null()
			} else {
				out[i] = stored[off+1]
			}
		case expr.AggAvg:
			n := stored[off]
			if n.Kind() != record.KindInt64 || n.AsInt() == 0 {
				out[i] = record.Null()
				break
			}
			sum, ok := stored[off+1].Numeric()
			if !ok {
				out[i] = record.Null()
				break
			}
			out[i] = record.Float(sum / float64(n.AsInt()))
		default:
			out[i] = stored[off]
		}
	}
	return out, nil
}
