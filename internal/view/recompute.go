package view

import (
	"sort"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/record"
)

// Entry is one (key, stored value) pair of a fully recomputed view.
type Entry struct {
	Key []byte
	Val record.Row
}

// Recompute builds the view's exact contents from materialized source rows.
// Its one caller in the engine is the kernel's recompute routine, which
// computes every view's expected contents: it streams a single-source
// aggregate through NewAggregator and calls Recompute for projection and
// join views. rightRows is ignored for single-table views.
func (m *Maintainer) Recompute(leftRows, rightRows []record.Row) ([]Entry, error) {
	if m.V.Kind == catalog.ViewAggregate {
		agg := m.NewAggregator()
		if err := m.eachSourceRow(leftRows, rightRows, agg.Add); err != nil {
			return nil, err
		}
		return agg.Entries(), nil
	}
	var out []Entry
	err := m.eachSourceRow(leftRows, rightRows, func(s record.Row) error {
		ok, err := m.Matches(s)
		if err != nil || !ok {
			return err
		}
		e, err := m.ProjectEntry(s)
		if err != nil {
			return err
		}
		out = append(out, Entry{Key: e.Key, Val: e.Val})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sortEntries(out)
	return out, nil
}

// Aggregator accumulates source rows into an aggregate view's stored rows,
// one running state per group: the recompute side of every checker, whether
// the rows come from a materialized slice (Recompute) or stream past one at
// a time (the kernel's recompute of a single-source aggregate, and the
// no-view aggregate query). It allocates per group, never per row.
type Aggregator struct {
	m      *Maintainer
	groups map[string]*groupAcc
	key    []byte // scratch for the row's encoded group key
}

// groupAcc is one group's running state: its row count and one accumulator
// per aggregate.
type groupAcc struct {
	rows int64
	aggs []aggAcc
}

// aggAcc accumulates one aggregate of one group. COUNT uses n; SUM and AVG
// use n (non-NULL inputs) and the split int/float sum; MIN/MAX use ext.
type aggAcc struct {
	n       int64
	sumI    int64
	sumF    float64
	isFloat bool
	ext     *expr.Accumulator
}

// NewAggregator returns an empty aggregator for the (aggregate) view.
func (m *Maintainer) NewAggregator() *Aggregator {
	return &Aggregator{m: m, groups: make(map[string]*groupAcc)}
}

// Add accumulates one source row, skipping it when the view's WHERE clause
// rejects it. src is not retained.
func (a *Aggregator) Add(src record.Row) error {
	m := a.m
	ok, err := m.Matches(src)
	if err != nil || !ok {
		return err
	}
	if a.key, err = m.AppendGroupKey(a.key[:0], src); err != nil {
		return err
	}
	g := a.groups[string(a.key)]
	if g == nil {
		g = &groupAcc{aggs: make([]aggAcc, len(m.V.Aggs))}
		for i, spec := range m.V.Aggs {
			if !spec.Func.Escrowable() {
				g.aggs[i].ext = expr.NewAccumulator(spec)
			}
		}
		a.groups[string(a.key)] = g
	}
	g.rows++
	for i, spec := range m.V.Aggs {
		acc := &g.aggs[i]
		switch spec.Func {
		case expr.AggCountRows:
		case expr.AggCount, expr.AggSum, expr.AggAvg:
			v, err := spec.Arg.Eval(src)
			if err != nil {
				return err
			}
			if v.IsNull() {
				continue
			}
			acc.n++
			if spec.Func == expr.AggCount {
				continue
			}
			if v.Kind() == record.KindInt64 {
				acc.sumI += v.AsInt()
			} else {
				acc.sumF += v.AsFloat()
				acc.isFloat = true
			}
		default: // MIN / MAX
			if err := acc.ext.Add(src); err != nil {
				return err
			}
		}
	}
	return nil
}

// Entries returns the accumulated groups in the view's stored cell layout
// (hidden count, SUM pairs, extrema), sorted by key.
func (a *Aggregator) Entries() []Entry {
	m := a.m
	out := make([]Entry, 0, len(a.groups))
	for k, g := range a.groups {
		stored := m.NewGroupRow()
		stored[0] = record.Int(g.rows)
		for i, spec := range m.V.Aggs {
			off, acc := m.aggOffsets[i], &g.aggs[i]
			switch spec.Func {
			case expr.AggCountRows:
				stored[off] = record.Int(g.rows)
			case expr.AggCount:
				stored[off] = record.Int(acc.n)
			case expr.AggSum, expr.AggAvg:
				stored[off] = record.Int(acc.n)
				if acc.isFloat {
					stored[off+1] = record.Float(acc.sumF + float64(acc.sumI))
				} else {
					stored[off+1] = record.Int(acc.sumI)
				}
			default:
				stored[off] = acc.ext.Result()
			}
		}
		out = append(out, Entry{Key: []byte(k), Val: stored})
	}
	sortEntries(out)
	return out
}

// eachSourceRow yields the view's unfiltered source rows — the left rows, or
// for a join view every left row combined with each right row it joins — to
// fn; consumers apply the WHERE clause.
func (m *Maintainer) eachSourceRow(leftRows, rightRows []record.Row, fn func(record.Row) error) error {
	if m.Right == nil {
		for _, l := range leftRows {
			if err := fn(l); err != nil {
				return err
			}
		}
		return nil
	}
	leftCol, rightCol := m.JoinCols()
	byJoin := map[string][]record.Row{}
	for _, r := range rightRows {
		v := r[rightCol]
		if v.IsNull() {
			continue
		}
		k := string(record.AppendKey(nil, v))
		byJoin[k] = append(byJoin[k], r)
	}
	for _, l := range leftRows {
		v := l[leftCol]
		if v.IsNull() {
			continue
		}
		k := string(record.AppendKey(nil, v))
		for _, r := range byJoin[k] {
			if err := fn(m.CombineRows(l, r)); err != nil {
				return err
			}
		}
	}
	return nil
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		return record.CompareKeys(es[i].Key, es[j].Key) < 0
	})
}
