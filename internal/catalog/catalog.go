// Package catalog holds the schema: tables, secondary indexes, and indexed
// view definitions. Definitions validate at creation time and serialize into
// the snapshot so the schema survives restarts.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
)

// Column is one typed column of a table.
type Column struct {
	Name string
	Kind record.Kind
}

// Table describes a base table, stored as one clustered B-tree keyed by PK.
type Table struct {
	Name string
	ID   id.Tree
	Cols []Column
	PK   []int // column indexes forming the primary key
}

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Index describes a secondary index on a table: key = (Cols..., PK...), so
// non-unique indexes disambiguate by primary key.
type Index struct {
	Name   string
	ID     id.Tree
	Table  string
	Cols   []int
	Unique bool
}

// ViewKind distinguishes projection views from aggregate views.
type ViewKind uint8

const (
	// ViewProjection materializes filtered, projected source rows, keyed by
	// the source primary key(s).
	ViewProjection ViewKind = iota + 1
	// ViewAggregate materializes GROUP BY aggregates, keyed by the group.
	ViewAggregate
)

// Strategy selects how a view is maintained — the experimental axis of the
// paper's evaluation.
type Strategy uint8

const (
	// StrategyEscrow maintains aggregates with E locks and commit-time
	// folds: the paper's contribution. Non-escrowable aggregates (MIN/MAX)
	// fall back to X locks per row.
	StrategyEscrow Strategy = iota + 1
	// StrategyXLock maintains every view row under transaction-duration X
	// locks: the conventional baseline.
	StrategyXLock
	// StrategyDeferred keeps the view out of the user transaction's critical
	// path: commits publish their fold deltas to a background applier that
	// batches, coalesces, and folds them shortly after commit (bounded
	// staleness, DESIGN.md §9). Requires a pure commutative aggregate view
	// (no MIN/MAX). Baselines F9/F9D.
	StrategyDeferred
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyEscrow:
		return "escrow"
	case StrategyXLock:
		return "xlock"
	case StrategyDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// View describes an indexed view.
//
// The source is either one relation (Source/Left) — a base table or another
// aggregate view — or the equijoin of Left and Right on
// Left.col[JoinLeftCol] = Right.col[JoinRightCol]. Expressions and column
// indexes address the source row: the left row's columns followed — for
// joins — by the right row's columns. For a view source, the source row is
// the parent view's output row: group columns followed by aggregate outputs.
//
// Definitions are written in the named style (Source, GroupBy, Project,
// expr.NamedCol arguments); AddView resolves every name against the source
// schema and fills the positional fields (ProjectCols, GroupByCols), which
// are the resolved form the engine reads and the WAL/catalog encoding stores.
type View struct {
	Name string
	ID   id.Tree
	Kind ViewKind
	// Source names the source relation (table or aggregate view). It is the
	// preferred alias for Left: AddView normalizes one into the other and
	// rejects definitions where both are set but disagree.
	Source string
	Left   string
	Right  string // "" when the source is a single relation
	// Join columns, named (resolved by AddView) or positional. JoinRightCol
	// indexes the combined source row, i.e. right-column index + left width.
	JoinLeftName  string
	JoinRightName string
	JoinLeftCol   int
	JoinRightCol  int
	Where         expr.Expr
	// ViewProjection: the output columns by name.
	Project []string
	// ProjectCols holds Project's source-row indexes. AddView fills it from
	// the names, and the WAL/catalog encoding stores it.
	ProjectCols []int
	// ViewAggregate: the grouping columns by name, plus the aggregates.
	GroupBy []string
	// GroupByCols holds GroupBy's source-row indexes. AddView fills it from
	// the names, and the WAL/catalog encoding stores it.
	GroupByCols []int
	Aggs        []expr.AggSpec
	// Strategy selects the maintenance protocol.
	Strategy Strategy

	// Filled by the catalog: dependency depth (0 over a base table, parent
	// level + 1 over a view) and whether Left names another view.
	level   int
	srcView bool
}

// Join reports whether the view's source is a two-table join.
func (v *View) Join() bool { return v.Right != "" }

// OverView reports whether the view's source is another view.
func (v *View) OverView() bool { return v.srcView }

// Level is the view's depth in the dependency DAG: 0 for a view over a base
// table, parent level + 1 for a view over a view. Tree-ID order is always a
// valid topological order (a view can only reference relations that already
// exist when it is created, and drops are rejected while dependents remain),
// so maintenance cascades process trees in ascending ID order; Level exists
// for attribution and diagnostics.
func (v *View) Level() int { return v.level }

// Catalog is the mutable, thread-safe schema registry. It also allocates
// tree IDs.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	indexes  map[string]*Index
	views    map[string]*View
	viewsOn  map[string][]*View // lazy per-table cache, reset on view DDL
	nextTree id.Tree
}

// Errors returned by catalog operations.
var (
	// ErrExists reports a duplicate object name.
	ErrExists = errors.New("catalog: object already exists")
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("catalog: object not found")
	// ErrInvalid reports a definition that fails validation.
	ErrInvalid = errors.New("catalog: invalid definition")
	// ErrInUse reports a drop rejected because dependent views remain.
	ErrInUse = errors.New("catalog: object in use")
)

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:   make(map[string]*Table),
		indexes:  make(map[string]*Index),
		views:    make(map[string]*View),
		nextTree: 1,
	}
}

func (c *Catalog) nameTaken(name string) bool {
	if _, ok := c.tables[name]; ok {
		return true
	}
	if _, ok := c.indexes[name]; ok {
		return true
	}
	_, ok := c.views[name]
	return ok
}

// AddTable validates and registers a table, assigning its tree ID.
func (c *Catalog) AddTable(name string, cols []Column, pk []int) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nameTaken(name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	if name == "" || len(cols) == 0 {
		return nil, fmt.Errorf("%w: table needs a name and columns", ErrInvalid)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		if col.Name == "" || seen[col.Name] {
			return nil, fmt.Errorf("%w: bad column name %q", ErrInvalid, col.Name)
		}
		seen[col.Name] = true
	}
	if len(pk) == 0 {
		return nil, fmt.Errorf("%w: table %q needs a primary key", ErrInvalid, name)
	}
	pkSeen := map[int]bool{}
	for _, i := range pk {
		if i < 0 || i >= len(cols) || pkSeen[i] {
			return nil, fmt.Errorf("%w: bad PK column %d", ErrInvalid, i)
		}
		pkSeen[i] = true
	}
	t := &Table{
		Name: name,
		ID:   c.nextTree,
		Cols: append([]Column(nil), cols...),
		PK:   append([]int(nil), pk...),
	}
	c.nextTree++
	c.tables[name] = t
	return t, nil
}

// AddIndex validates and registers a secondary index.
func (c *Catalog) AddIndex(name, table string, cols []int, unique bool) (*Index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nameTaken(name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, table)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: index %q needs columns", ErrInvalid, name)
	}
	for _, i := range cols {
		if i < 0 || i >= len(t.Cols) {
			return nil, fmt.Errorf("%w: bad index column %d", ErrInvalid, i)
		}
	}
	ix := &Index{
		Name:   name,
		ID:     c.nextTree,
		Table:  table,
		Cols:   append([]int(nil), cols...),
		Unique: unique,
	}
	c.nextTree++
	c.indexes[name] = ix
	return ix, nil
}

// AddView validates and registers an indexed view definition: it normalizes
// the named-column style into positional references, validates the result
// against the source schema, and — when the source is another view — checks
// the dependency-DAG rules (aggregate parent, no joins, escrowable
// aggregates, deferred parents only feed deferred children).
func (c *Catalog) AddView(v View) (*View, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Normalize the Source alias into Left.
	if v.Source != "" {
		if v.Left != "" && v.Left != v.Source {
			return nil, fmt.Errorf("%w: view %q: Source %q and Left %q disagree", ErrInvalid, v.Name, v.Source, v.Left)
		}
		v.Left = v.Source
	}
	v.Source = v.Left
	if c.nameTaken(v.Name) {
		return nil, fmt.Errorf("%w: %q", ErrExists, v.Name)
	}
	leftCols, leftView, err := c.sourceSchemaLocked(v.Left)
	if err != nil {
		return nil, err
	}
	v.srcView = leftView != nil
	if leftView != nil {
		v.level = leftView.level + 1
	}
	srcCols := leftCols
	if v.Right != "" {
		if v.srcView {
			return nil, fmt.Errorf("%w: view %q: a view over view %q cannot join", ErrInvalid, v.Name, v.Left)
		}
		right, ok := c.tables[v.Right]
		if !ok {
			return nil, fmt.Errorf("%w: join table %q", ErrNotFound, v.Right)
		}
		if v.JoinLeftName != "" {
			i := colIndex(leftCols, v.JoinLeftName)
			if i < 0 {
				return nil, fmt.Errorf("%w: view %q: join column %q not in %q", ErrInvalid, v.Name, v.JoinLeftName, v.Left)
			}
			v.JoinLeftCol = i
		}
		if v.JoinRightName != "" {
			i := right.ColIndex(v.JoinRightName)
			if i < 0 {
				return nil, fmt.Errorf("%w: view %q: join column %q not in %q", ErrInvalid, v.Name, v.JoinRightName, v.Right)
			}
			v.JoinRightCol = i + len(leftCols)
		}
		if v.JoinLeftCol < 0 || v.JoinLeftCol >= len(leftCols) {
			return nil, fmt.Errorf("%w: join left column %d", ErrInvalid, v.JoinLeftCol)
		}
		rightIdx := v.JoinRightCol - len(leftCols)
		if rightIdx < 0 || rightIdx >= len(right.Cols) {
			return nil, fmt.Errorf("%w: join right column %d (must index the right portion of the source row)", ErrInvalid, v.JoinRightCol)
		}
		if leftCols[v.JoinLeftCol].Kind != right.Cols[rightIdx].Kind {
			return nil, fmt.Errorf("%w: join column kinds differ", ErrInvalid)
		}
		srcCols = append(append([]Column(nil), leftCols...), right.Cols...)
	}
	resolve := func(name string) (int, error) {
		if i := colIndex(srcCols, name); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("%w: view %q: column %q not in source %q", ErrInvalid, v.Name, name, v.Left)
	}
	// Resolve named column lists into the positional shims (or backfill the
	// names from a positional definition, so the output schema always has
	// column names for views stacked on this one).
	v.GroupBy, v.GroupByCols, err = resolveColList(v.Name, "group-by", v.GroupBy, v.GroupByCols, srcCols, resolve)
	if err != nil {
		return nil, err
	}
	v.Project, v.ProjectCols, err = resolveColList(v.Name, "project", v.Project, v.ProjectCols, srcCols, resolve)
	if err != nil {
		return nil, err
	}
	if v.Where, err = expr.ResolveColumns(v.Where, resolve); err != nil {
		return nil, err
	}
	for i := range v.Aggs {
		if v.Aggs[i].Arg, err = expr.ResolveColumns(v.Aggs[i].Arg, resolve); err != nil {
			return nil, err
		}
	}
	switch v.Kind {
	case ViewProjection:
		if len(v.ProjectCols) == 0 {
			return nil, fmt.Errorf("%w: projection view needs output columns", ErrInvalid)
		}
		if len(v.GroupByCols) != 0 || len(v.Aggs) != 0 {
			return nil, fmt.Errorf("%w: projection view cannot aggregate", ErrInvalid)
		}
	case ViewAggregate:
		if len(v.Aggs) == 0 {
			return nil, fmt.Errorf("%w: aggregate view needs aggregates", ErrInvalid)
		}
		for _, a := range v.Aggs {
			if a.Func == expr.AggCountRows {
				continue
			}
			if a.Arg == nil {
				return nil, fmt.Errorf("%w: %s needs an argument", ErrInvalid, a.Func)
			}
		}
		if len(v.ProjectCols) != 0 {
			return nil, fmt.Errorf("%w: aggregate view cannot project", ErrInvalid)
		}
		if err := nameAggs(&v, srcCols); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown view kind %d", ErrInvalid, v.Kind)
	}
	if v.Strategy == 0 {
		v.Strategy = StrategyEscrow
	}
	if v.Strategy == StrategyDeferred {
		// The background applier maintains deferred views purely by folding
		// commutative deltas; projections and extrema have no fold arithmetic.
		if v.Kind != ViewAggregate {
			return nil, fmt.Errorf("%w: deferred maintenance requires an aggregate view", ErrInvalid)
		}
		for _, a := range v.Aggs {
			if a.Func == expr.AggMin || a.Func == expr.AggMax {
				return nil, fmt.Errorf("%w: deferred maintenance cannot fold %s", ErrInvalid, a.Func)
			}
		}
	}
	if v.srcView {
		// A stacked view's deltas arrive as signed contributions from the
		// parent's fold/update path, so the child must fold commutatively.
		if leftView.Kind != ViewAggregate {
			return nil, fmt.Errorf("%w: view %q: source view %q must be an aggregate view", ErrInvalid, v.Name, v.Left)
		}
		if v.Kind != ViewAggregate {
			return nil, fmt.Errorf("%w: view %q: a view over a view must aggregate", ErrInvalid, v.Name)
		}
		for _, a := range v.Aggs {
			if !a.Func.Escrowable() {
				return nil, fmt.Errorf("%w: view %q: %s cannot be maintained over view %q", ErrInvalid, v.Name, a.Func, v.Left)
			}
		}
		if v.Strategy == StrategyXLock {
			return nil, fmt.Errorf("%w: view %q: views over views use escrow or deferred maintenance", ErrInvalid, v.Name)
		}
		if leftView.Strategy == StrategyDeferred && v.Strategy != StrategyDeferred {
			return nil, fmt.Errorf("%w: view %q over deferred view %q must itself be deferred", ErrInvalid, v.Name, v.Left)
		}
	}
	nv := v // copy
	nv.ID = c.nextTree
	c.nextTree++
	c.views[v.Name] = &nv
	c.viewsOn = nil
	return &nv, nil
}

// DropView removes a view definition. It fails with ErrInUse while other
// views are defined over this one.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.views[name]; !ok {
		return fmt.Errorf("%w: view %q", ErrNotFound, name)
	}
	for _, other := range c.views {
		if other.Name != name && other.Left == name {
			return fmt.Errorf("%w: view %q has dependent view %q", ErrInUse, name, other.Name)
		}
	}
	delete(c.views, name)
	c.viewsOn = nil
	return nil
}

// colIndex returns the index of the named column in cols, or -1.
func colIndex(cols []Column, name string) int {
	for i, c := range cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// resolveColList reconciles the named and positional forms of a column list:
// names resolve to indexes, a purely positional list gets its names
// backfilled from the source schema, and a definition supplying both forms
// must supply them consistently.
func resolveColList(view, what string, names []string, idxs []int, srcCols []Column, resolve func(string) (int, error)) ([]string, []int, error) {
	if len(names) == 0 && len(idxs) == 0 {
		return nil, nil, nil
	}
	if len(names) != 0 {
		if len(idxs) != 0 && len(idxs) != len(names) {
			return nil, nil, fmt.Errorf("%w: view %q: %s names and indexes disagree", ErrInvalid, view, what)
		}
		resolved := make([]int, len(names))
		for i, n := range names {
			idx, err := resolve(n)
			if err != nil {
				return nil, nil, err
			}
			if len(idxs) != 0 && idxs[i] != idx {
				return nil, nil, fmt.Errorf("%w: view %q: %s column %q resolves to %d, not %d", ErrInvalid, view, what, n, idx, idxs[i])
			}
			resolved[i] = idx
		}
		return names, resolved, nil
	}
	names = make([]string, len(idxs))
	for i, idx := range idxs {
		if idx < 0 || idx >= len(srcCols) {
			return nil, nil, fmt.Errorf("%w: view %q: %s column %d of %d", ErrInvalid, view, what, idx, len(srcCols))
		}
		names[i] = srcCols[idx].Name
	}
	return names, idxs, nil
}

// nameAggs fills empty aggregate output names with synthesized ones
// ("count", "sum_amount", ...) and rejects duplicates among group and
// aggregate output columns. Synthesis renders column arguments with their
// source-schema names, so positional definitions get the same readable
// output columns as named ones (mirroring resolveColList's name backfill).
func nameAggs(v *View, srcCols []Column) error {
	taken := make(map[string]bool, len(v.GroupBy)+len(v.Aggs))
	for _, n := range v.GroupBy {
		taken[n] = true
	}
	for i := range v.Aggs {
		a := &v.Aggs[i]
		if a.Name == "" {
			base := synthAggName(*a, srcCols)
			a.Name = base
			for n := 2; taken[a.Name]; n++ {
				a.Name = fmt.Sprintf("%s_%d", base, n)
			}
		} else if taken[a.Name] {
			return fmt.Errorf("%w: view %q: duplicate output column %q", ErrInvalid, v.Name, a.Name)
		}
		taken[a.Name] = true
	}
	return nil
}

// synthAggName derives an output column name from the aggregate spec, e.g.
// SUM(amount) -> "sum_amount". A plain column argument renders by its
// source-schema name; anything else falls back to the expression string.
func synthAggName(a expr.AggSpec, srcCols []Column) string {
	if a.Func == expr.AggCountRows {
		return "count"
	}
	base := strings.ToLower(a.Func.String())
	if a.Arg == nil {
		return base
	}
	arg := a.Arg.String()
	if idx, ok := expr.ColIndex(a.Arg); ok && idx >= 0 && idx < len(srcCols) {
		arg = srcCols[idx].Name
	}
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteByte('_')
	for _, r := range strings.ToLower(arg) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') || r == '_' {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// sourceSchemaLocked returns the column schema of a source relation and, when
// the source is a view, its definition (nil for a base table).
func (c *Catalog) sourceSchemaLocked(name string) ([]Column, *View, error) {
	if t, ok := c.tables[name]; ok {
		return t.Cols, nil, nil
	}
	if v, ok := c.views[name]; ok {
		cols, err := c.viewOutputColsLocked(v)
		return cols, v, err
	}
	return nil, nil, fmt.Errorf("%w: source relation %q", ErrNotFound, name)
}

// viewOutputColsLocked derives the output schema of an aggregate view: group
// columns (source names and kinds) followed by aggregate outputs.
func (c *Catalog) viewOutputColsLocked(v *View) ([]Column, error) {
	if v.Kind != ViewAggregate {
		return nil, fmt.Errorf("%w: view %q has no stackable output schema", ErrInvalid, v.Name)
	}
	srcCols, _, err := c.sourceSchemaLocked(v.Left)
	if err != nil {
		return nil, err
	}
	if v.Right != "" {
		right, ok := c.tables[v.Right]
		if !ok {
			return nil, fmt.Errorf("%w: join table %q", ErrNotFound, v.Right)
		}
		srcCols = append(append([]Column(nil), srcCols...), right.Cols...)
	}
	out := make([]Column, 0, len(v.GroupByCols)+len(v.Aggs))
	for gi, ci := range v.GroupByCols {
		if ci < 0 || ci >= len(srcCols) {
			return nil, fmt.Errorf("%w: view %q: group-by column %d of %d", ErrInvalid, v.Name, ci, len(srcCols))
		}
		name := srcCols[ci].Name
		if gi < len(v.GroupBy) && v.GroupBy[gi] != "" {
			name = v.GroupBy[gi]
		}
		out = append(out, Column{Name: name, Kind: srcCols[ci].Kind})
	}
	zero := zeroRow(srcCols)
	for _, a := range v.Aggs {
		name := a.Name
		if name == "" {
			name = synthAggName(a, srcCols)
		}
		out = append(out, Column{Name: name, Kind: aggKind(a, zero)})
	}
	return out, nil
}

// aggKind probes the output kind of one aggregate column. COUNT variants are
// BIGINT and AVG is DOUBLE; SUM/MIN/MAX take the argument's kind, probed by
// evaluating it over a zero-valued source row.
func aggKind(a expr.AggSpec, zero record.Row) record.Kind {
	switch a.Func {
	case expr.AggCountRows, expr.AggCount:
		return record.KindInt64
	case expr.AggAvg:
		return record.KindFloat64
	}
	if a.Arg != nil {
		if v, err := a.Arg.Eval(zero); err == nil && !v.IsNull() {
			return v.Kind()
		}
	}
	return record.KindInt64
}

// zeroRow builds a row of typed zero values matching cols, for kind probing.
func zeroRow(cols []Column) record.Row {
	row := make(record.Row, len(cols))
	for i, col := range cols {
		switch col.Kind {
		case record.KindFloat64:
			row[i] = record.Float(0)
		case record.KindString:
			row[i] = record.Str("")
		case record.KindBool:
			row[i] = record.Bool(false)
		default:
			row[i] = record.Int(0)
		}
	}
	return row
}

// SourceTable resolves a source-relation name to a table schema: the real
// table, or a pseudo-table describing a view's output rows (group columns
// followed by aggregate outputs, keyed by the group columns). Maintainers
// compile against this schema uniformly whether they sit on a table or on
// another view.
func (c *Catalog) SourceTable(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if t, ok := c.tables[name]; ok {
		return t, nil
	}
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: source relation %q", ErrNotFound, name)
	}
	cols, err := c.viewOutputColsLocked(v)
	if err != nil {
		return nil, err
	}
	pk := make([]int, len(v.GroupByCols))
	for i := range pk {
		pk[i] = i
	}
	return &Table{Name: v.Name, ID: v.ID, Cols: cols, PK: pk}, nil
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: table %q", ErrNotFound, name)
	}
	return t, nil
}

// View returns the named view.
func (c *Catalog) View(name string) (*View, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: view %q", ErrNotFound, name)
	}
	return v, nil
}

// Index returns the named index.
func (c *Catalog) Index(name string) (*Index, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ix, ok := c.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: index %q", ErrNotFound, name)
	}
	return ix, nil
}

// Tables returns every table, sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Views returns every view, sorted by name.
func (c *Catalog) Views() []*View {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*View, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Indexes returns every secondary index, sorted by name.
func (c *Catalog) Indexes() []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Index, 0, len(c.indexes))
	for _, ix := range c.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ViewsOn returns every view whose source includes the named relation —
// a base table or, for stacked views, another view — sorted by name. The
// per-source cache is keyed by relation name and reset (viewsOn = nil) on
// every view DDL path (AddView, DropView), so stacked-view entries can never
// go stale.
func (c *Catalog) ViewsOn(source string) []*View {
	c.mu.RLock()
	out, ok := c.viewsOn[source]
	c.mu.RUnlock()
	if ok {
		return out
	}
	// Miss: build and cache under the write lock. Callers must not mutate
	// the returned slice; it is shared until the next view DDL.
	c.mu.Lock()
	defer c.mu.Unlock()
	if out, ok := c.viewsOn[source]; ok {
		return out
	}
	out = make([]*View, 0, 2)
	for _, v := range c.views {
		if v.Left == source || v.Right == source {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if c.viewsOn == nil {
		c.viewsOn = make(map[string][]*View)
	}
	c.viewsOn[source] = out
	return out
}

// IndexesOn returns every secondary index on the table, sorted by name.
func (c *Catalog) IndexesOn(table string) []*Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Index
	for _, ix := range c.indexes {
		if ix.Table == table {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AllTreeIDs returns every allocated tree ID (tables, indexes, views).
func (c *Catalog) AllTreeIDs() []id.Tree {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []id.Tree
	for _, t := range c.tables {
		out = append(out, t.ID)
	}
	for _, ix := range c.indexes {
		out = append(out, ix.ID)
	}
	for _, v := range c.views {
		out = append(out, v.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
