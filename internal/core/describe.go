package core

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
)

// ViewInfo describes how an indexed view is maintained — an EXPLAIN for the
// maintenance plan.
type ViewInfo struct {
	// Name is the view's name; Kind and Strategy come from the definition.
	Name     string
	Kind     catalog.ViewKind
	Strategy catalog.Strategy
	// Source describes the base table(s).
	Source string
	// Escrow reports whether maintenance uses escrow locking (the paper's
	// protocol): the strategy allows it and every aggregate commutes.
	Escrow bool
	// Cells is the stored row width for aggregate views (hidden count plus
	// per-aggregate cells).
	Cells int
	// Aggregates lists each aggregate with its stored-cell span and
	// escrowability.
	Aggregates []AggInfo
	// Rows and Ghosts count the view tree's current entries.
	Rows   int
	Ghosts int
}

// AggInfo describes one aggregate column of a view.
type AggInfo struct {
	Spec       string
	FirstCell  int
	CellCount  int
	Escrowable bool
}

// String renders the info as a small report.
func (vi ViewInfo) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "view %s: %s over %s, strategy=%s", vi.Name, kindName(vi.Kind), vi.Source, vi.Strategy)
	if vi.Kind == catalog.ViewAggregate {
		protocol := "X-lock maintenance"
		if vi.Escrow {
			protocol = "escrow maintenance (E locks, commit-time folds, ghosts)"
		}
		fmt.Fprintf(&sb, "\n  protocol: %s", protocol)
		fmt.Fprintf(&sb, "\n  stored row: %d cells (cell 0 = hidden COUNT(*))", vi.Cells)
		for _, a := range vi.Aggregates {
			tag := "escrowable"
			if !a.Escrowable {
				tag = "X-lock (not commutative)"
			}
			fmt.Fprintf(&sb, "\n  %s -> cells %d..%d, %s", a.Spec, a.FirstCell, a.FirstCell+a.CellCount-1, tag)
		}
	}
	fmt.Fprintf(&sb, "\n  contents: %d rows, %d ghosts", vi.Rows, vi.Ghosts)
	return sb.String()
}

func kindName(k catalog.ViewKind) string {
	if k == catalog.ViewProjection {
		return "projection"
	}
	return "aggregate"
}

// Describe renders an engine-level report: concurrency-control layout
// (lock-manager stripes) and contention counters. It complements
// DescribeView, which reports per-view maintenance plans.
func (db *DB) Describe() string {
	st := db.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "engine: %d lock shards", st.Lock.Shards)
	fmt.Fprintf(&sb, "\n  txns: %d commits, %d aborts, %d system", st.Commits, st.Aborts, st.SysTxns)
	fmt.Fprintf(&sb, "\n  locks: %d requests, %d waits, %d deadlocks, %d timeouts, %d escalations",
		st.Lock.Requests, st.Lock.Waits, st.Lock.Deadlocks, st.Lock.Timeouts, st.Escalations)
	fmt.Fprintf(&sb, "\n  contention: %d shard collisions, max queue depth %d",
		st.Lock.Collisions, st.Lock.MaxQueueDepth)
	fmt.Fprintf(&sb, "\n  deadlock detector: %d sweeps, last %v, max %v",
		st.Lock.Sweeps, st.Lock.LastSweep, st.Lock.MaxSweep)
	busiest, resources := -1, 0
	var busiestCollisions int64
	for i, ss := range st.Lock.PerShard {
		resources += ss.Resources
		if busiest < 0 || ss.Collisions > busiestCollisions {
			busiest, busiestCollisions = i, ss.Collisions
		}
	}
	if busiest >= 0 {
		fmt.Fprintf(&sb, "\n  lock table: %d resident resources, busiest shard #%d (%d collisions)",
			resources, busiest, busiestCollisions)
	}
	fmt.Fprintf(&sb, "\n  escrow: %d folds; ghosts %d created, %d erased",
		st.Folds, st.GhostsCreated, st.GhostsErased)
	return sb.String()
}

// DescribeView returns the maintenance-plan description of a view.
func (db *DB) DescribeView(name string) (ViewInfo, error) {
	if db.closed.Load() {
		return ViewInfo{}, ErrClosed
	}
	v, err := db.Catalog().View(name)
	if err != nil {
		return ViewInfo{}, err
	}
	m := db.reg.Maintainer(v.ID)
	if m == nil {
		return ViewInfo{}, fmt.Errorf("core: view %q has no compiled maintainer", name)
	}
	source := v.Left
	if v.Join() {
		source = fmt.Sprintf("%s ⋈ %s", v.Left, v.Right)
	}
	tree := db.tree(v.ID)
	info := ViewInfo{
		Name:     v.Name,
		Kind:     v.Kind,
		Strategy: v.Strategy,
		Source:   source,
		Escrow:   v.Strategy == catalog.StrategyEscrow && v.Kind == catalog.ViewAggregate && !m.HasMinMax(),
		Cells:    m.Cells(),
		Rows:     tree.Len(),
		Ghosts:   tree.GhostCount(),
	}
	for i, a := range v.Aggs {
		span := 1
		if a.Func == expr.AggSum || a.Func == expr.AggAvg {
			span = 2
		}
		info.Aggregates = append(info.Aggregates, AggInfo{
			Spec:       a.String(),
			FirstCell:  m.AggOffset(i),
			CellCount:  span,
			Escrowable: a.Func.Escrowable(),
		})
	}
	return info, nil
}
