package catalog

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/id"
	"repro/internal/record"
)

func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.AddTable("accounts", []Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "branch", Kind: record.KindInt64},
		{Name: "balance", Kind: record.KindInt64},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTable("branches", []Column{
		{Name: "id", Kind: record.KindInt64},
		{Name: "name", Kind: record.KindString},
	}, []int{0}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddTableValidation(t *testing.T) {
	c := testCatalog(t)
	cases := []struct {
		name string
		cols []Column
		pk   []int
	}{
		{"accounts", []Column{{Name: "x", Kind: record.KindInt64}}, []int{0}}, // duplicate
		{"", []Column{{Name: "x", Kind: record.KindInt64}}, []int{0}},         // empty name
		{"t2", nil, nil}, // no columns
		{"t3", []Column{{Name: "a", Kind: record.KindInt64}, {Name: "a", Kind: record.KindInt64}}, []int{0}}, // dup col
		{"t4", []Column{{Name: "a", Kind: record.KindInt64}}, nil},                                           // no pk
		{"t5", []Column{{Name: "a", Kind: record.KindInt64}}, []int{1}},                                      // pk out of range
		{"t6", []Column{{Name: "a", Kind: record.KindInt64}}, []int{0, 0}},                                   // dup pk
	}
	for _, tc := range cases {
		if _, err := c.AddTable(tc.name, tc.cols, tc.pk); err == nil {
			t.Errorf("AddTable(%q) accepted invalid definition", tc.name)
		}
	}
}

func TestAddIndex(t *testing.T) {
	c := testCatalog(t)
	ix, err := c.AddIndex("accounts_branch", "accounts", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ix.ID == 0 {
		t.Fatal("index got zero tree ID")
	}
	if _, err := c.AddIndex("bad", "nope", []int{0}, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing table err = %v", err)
	}
	if _, err := c.AddIndex("bad2", "accounts", []int{9}, false); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad column err = %v", err)
	}
	if _, err := c.AddIndex("accounts_branch", "accounts", []int{1}, false); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate err = %v", err)
	}
	got := c.IndexesOn("accounts")
	if len(got) != 1 || got[0].Name != "accounts_branch" {
		t.Fatalf("IndexesOn = %v", got)
	}
}

func aggView() View {
	return View{
		Name:        "branch_totals",
		Kind:        ViewAggregate,
		Left:        "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
	}
}

func TestAddAggregateView(t *testing.T) {
	c := testCatalog(t)
	v, err := c.AddView(aggView())
	if err != nil {
		t.Fatal(err)
	}
	if v.Strategy != StrategyEscrow {
		t.Fatalf("default strategy = %v", v.Strategy)
	}
	if v.ID == 0 {
		t.Fatal("view got zero tree ID")
	}
	vs := c.ViewsOn("accounts")
	if len(vs) != 1 || vs[0].Name != "branch_totals" {
		t.Fatalf("ViewsOn = %v", vs)
	}
	if len(c.ViewsOn("branches")) != 0 {
		t.Fatal("ViewsOn wrong table")
	}
}

func TestAddJoinView(t *testing.T) {
	c := testCatalog(t)
	v := View{
		Name:         "acct_branch_names",
		Kind:         ViewProjection,
		Left:         "accounts",
		Right:        "branches",
		JoinLeftCol:  1, // accounts.branch
		JoinRightCol: 3, // branches.id (source-row index: 3 cols of accounts + 0)
		ProjectCols:  []int{0, 2, 4},
	}
	if _, err := c.AddView(v); err != nil {
		t.Fatal(err)
	}
	// Both tables see the view.
	if len(c.ViewsOn("accounts")) != 1 || len(c.ViewsOn("branches")) != 1 {
		t.Fatal("join view not indexed under both tables")
	}
}

func TestAddViewValidation(t *testing.T) {
	c := testCatalog(t)
	bad := []View{
		{Name: "v", Kind: ViewAggregate, Left: "missing", Aggs: []expr.AggSpec{{Func: expr.AggCountRows}}},
		{Name: "v", Kind: ViewAggregate, Left: "accounts"},                                                                         // no aggs
		{Name: "v", Kind: ViewAggregate, Left: "accounts", GroupByCols: []int{9}, Aggs: []expr.AggSpec{{Func: expr.AggCountRows}}}, // bad group col
		{Name: "v", Kind: ViewAggregate, Left: "accounts", Aggs: []expr.AggSpec{{Func: expr.AggSum}}},                              // SUM without arg
		{Name: "v", Kind: ViewProjection, Left: "accounts"},                                                                        // no projection
		{Name: "v", Kind: ViewProjection, Left: "accounts", ProjectCols: []int{5}},                                                 // bad project col
		{Name: "v", Kind: 99, Left: "accounts"},                                                                                    // bad kind
		{Name: "v", Kind: ViewProjection, Left: "accounts", Right: "missing", ProjectCols: []int{0}},                               // bad join table
		{Name: "v", Kind: ViewProjection, Left: "accounts", Right: "branches",
			JoinLeftCol: 9, JoinRightCol: 3, ProjectCols: []int{0}}, // bad join col
		{Name: "v", Kind: ViewProjection, Left: "accounts", Right: "branches",
			JoinLeftCol: 1, JoinRightCol: 0, ProjectCols: []int{0}}, // right col not in right portion
		{Name: "v", Kind: ViewProjection, Left: "accounts", Right: "branches",
			JoinLeftCol: 1, JoinRightCol: 4, ProjectCols: []int{0}}, // kinds differ (int vs string)
		{Name: "accounts", Kind: ViewProjection, Left: "accounts", ProjectCols: []int{0}}, // name clash
	}
	for i, v := range bad {
		if _, err := c.AddView(v); err == nil {
			t.Errorf("case %d: invalid view accepted", i)
		}
	}
}

func TestDropView(t *testing.T) {
	c := testCatalog(t)
	c.AddView(aggView())
	if err := c.DropView("branch_totals"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("branch_totals"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double drop err = %v", err)
	}
	if len(c.Views()) != 0 {
		t.Fatal("view list not empty")
	}
}

func TestLookupsAndLists(t *testing.T) {
	c := testCatalog(t)
	c.AddIndex("accounts_branch", "accounts", []int{1}, false)
	c.AddView(aggView())
	if _, err := c.Table("accounts"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing table lookup")
	}
	if _, err := c.View("branch_totals"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Index("accounts_branch"); err != nil {
		t.Fatal(err)
	}
	if got := c.Tables(); len(got) != 2 || got[0].Name != "accounts" || got[1].Name != "branches" {
		t.Fatalf("Tables = %v", got)
	}
	ids := c.AllTreeIDs()
	if len(ids) != 4 {
		t.Fatalf("AllTreeIDs = %v", ids)
	}
	seen := map[int]bool{}
	for _, tid := range ids {
		if seen[int(tid)] {
			t.Fatal("duplicate tree IDs")
		}
		seen[int(tid)] = true
	}
	tb, _ := c.Table("accounts")
	if tb.ColIndex("balance") != 2 || tb.ColIndex("nope") != -1 {
		t.Fatal("ColIndex wrong")
	}
	// A later view whose name sorts first: by-name and by-tree orders differ.
	dv := aggView()
	dv.Name, dv.Strategy = "a_deferred", StrategyDeferred
	d, err := c.AddView(dv)
	if err != nil {
		t.Fatal(err)
	}
	bt, _ := c.View("branch_totals")
	if got := c.Views(); len(got) != 2 || got[0] != d || got[1] != bt {
		t.Fatalf("Views = %v", got)
	}
	if got := c.ViewsOn("accounts"); len(got) != 2 || got[0] != d || got[1] != bt {
		t.Fatalf("ViewsOn(accounts) = %v", got)
	}
	if got := c.ViewsByTree(); len(got) != 2 || got[0] != bt || got[1] != d {
		t.Fatalf("ViewsByTree = %v", got)
	}
	if got := c.DeferredViews(); len(got) != 1 || got[0] != d {
		t.Fatalf("DeferredViews = %v", got)
	}
	ix, _ := c.Index("accounts_branch")
	for tree, want := range map[id.Tree]string{tb.ID: "accounts", ix.ID: "accounts_branch", d.ID: "a_deferred"} {
		if name, ok := c.TreeName(tree); !ok || name != want {
			t.Errorf("TreeName(%s) = %q, %v; want %q", tree, name, ok, want)
		}
	}
	if name, ok := c.TreeName(id.Tree(999)); ok {
		t.Errorf("TreeName of an unallocated tree = %q", name)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := testCatalog(t)
	c.AddIndex("accounts_branch", "accounts", []int{1}, true)
	av := aggView()
	av.Where = expr.Gt(expr.Col(2), expr.ConstInt(0))
	av.Strategy = StrategyXLock
	c.AddView(av)
	c.AddView(View{
		Name:         "joined",
		Kind:         ViewProjection,
		Left:         "accounts",
		Right:        "branches",
		JoinLeftCol:  1,
		JoinRightCol: 3,
		ProjectCols:  []int{0, 4},
		Strategy:     StrategyEscrow,
	})

	enc := c.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.nextTree != c.nextTree {
		t.Fatalf("nextTree %d != %d", dec.nextTree, c.nextTree)
	}
	if !reflect.DeepEqual(c.Tables(), dec.Tables()) {
		t.Fatalf("tables differ:\n%v\n%v", c.Tables(), dec.Tables())
	}
	if !reflect.DeepEqual(c.Indexes(), dec.Indexes()) {
		t.Fatalf("indexes differ")
	}
	// Views contain expressions (not comparable with DeepEqual across
	// reconstruction unless the ASTs match exactly — ours do).
	a, b := c.Views(), dec.Views()
	if len(a) != len(b) {
		t.Fatalf("view counts differ")
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.Name != bv.Name || av.ID != bv.ID || av.Kind != bv.Kind ||
			av.Strategy != bv.Strategy || av.Left != bv.Left || av.Right != bv.Right ||
			av.JoinLeftCol != bv.JoinLeftCol || av.JoinRightCol != bv.JoinRightCol ||
			!reflect.DeepEqual(av.Project, bv.Project) || !reflect.DeepEqual(av.GroupBy, bv.GroupBy) ||
			!reflect.DeepEqual(av.ProjectCols, bv.ProjectCols) || !reflect.DeepEqual(av.GroupByCols, bv.GroupByCols) ||
			av.Level() != bv.Level() {
			t.Fatalf("view %d scalar fields differ:\n%+v\n%+v", i, av, bv)
		}
		if (av.Where == nil) != (bv.Where == nil) ||
			(av.Where != nil && av.Where.String() != bv.Where.String()) {
			t.Fatalf("view %d where differs", i)
		}
		if len(av.Aggs) != len(bv.Aggs) {
			t.Fatalf("view %d agg counts differ", i)
		}
		for j := range av.Aggs {
			if av.Aggs[j].String() != bv.Aggs[j].String() {
				t.Fatalf("view %d agg %d differs", i, j)
			}
		}
	}
	// IDs keep allocating without collision after decode.
	nt, err := dec.AddTable("extra", []Column{{Name: "x", Kind: record.KindInt64}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range c.AllTreeIDs() {
		if tid == nt.ID {
			t.Fatal("decoded catalog reallocated an existing tree ID")
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	c := testCatalog(t)
	c.AddView(aggView())
	good := c.Encode()
	for i := 0; i < len(good); i++ {
		if _, err := Decode(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if _, err := Decode(append(append([]byte{}, good...), 7)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := append([]byte{}, good...)
	bad[0] = 99 // version
	if _, err := Decode(bad); err == nil {
		t.Error("bad version accepted")
	}
}

// TestNamedPositionalEquivalence pins the API redesign contract: a definition
// written in the named style resolves to exactly the same view as one written
// with the deprecated positional fields, and both styles survive an
// encode/decode round trip identically.
func TestNamedPositionalEquivalence(t *testing.T) {
	named := View{
		Name: "branch_totals", Kind: ViewAggregate, Source: "accounts",
		GroupBy: []string{"branch"},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.NamedCol("balance")},
		},
	}
	positional := View{
		Name: "branch_totals", Kind: ViewAggregate, Left: "accounts",
		GroupByCols: []int{1},
		Aggs: []expr.AggSpec{
			{Func: expr.AggCountRows},
			{Func: expr.AggSum, Arg: expr.Col(2)},
		},
	}
	build := func(def View) *View {
		c := testCatalog(t)
		v, err := c.AddView(def)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	nv, pv := build(named), build(positional)
	if nv.Left != pv.Left || nv.Source != pv.Source {
		t.Fatalf("source: named %q/%q positional %q/%q", nv.Left, nv.Source, pv.Left, pv.Source)
	}
	if !reflect.DeepEqual(nv.GroupByCols, pv.GroupByCols) || !reflect.DeepEqual(nv.GroupBy, pv.GroupBy) {
		t.Fatalf("group-by: named %v/%v positional %v/%v", nv.GroupByCols, nv.GroupBy, pv.GroupByCols, pv.GroupBy)
	}
	for i := range nv.Aggs {
		if nv.Aggs[i].Name != pv.Aggs[i].Name {
			t.Fatalf("agg %d name: %q vs %q", i, nv.Aggs[i].Name, pv.Aggs[i].Name)
		}
		if nv.Aggs[i].String() != pv.Aggs[i].String() {
			t.Fatalf("agg %d: %s vs %s", i, nv.Aggs[i].String(), pv.Aggs[i].String())
		}
	}
	if nv.Level() != 0 {
		t.Fatalf("flat view level=%d", nv.Level())
	}
}

// stackedCatalog builds accounts -> branch_totals -> grand_totals.
func stackedCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := testCatalog(t)
	if _, err := c.AddView(aggView()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddView(View{
		Name: "grand_totals", Kind: ViewAggregate, Source: "branch_totals",
		GroupBy: []string{"count"},
		Aggs:    []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("sum_balance")}},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestViewDAGRules pins the catalog's DAG validation and the per-source
// ViewsOn cache across view DDL.
func TestViewDAGRules(t *testing.T) {
	c := stackedCatalog(t)
	child, err := c.View("grand_totals")
	if err != nil {
		t.Fatal(err)
	}
	if child.Level() != 1 {
		t.Fatalf("stacked view level=%d", child.Level())
	}
	// The per-source cache indexes views over views, and resets on DDL.
	if vs := c.ViewsOn("branch_totals"); len(vs) != 1 || vs[0].Name != "grand_totals" {
		t.Fatalf("ViewsOn(branch_totals) = %v", vs)
	}
	if err := c.DropView("branch_totals"); !errors.Is(err, ErrInUse) {
		t.Fatalf("mid-DAG drop err = %v", err)
	}
	if err := c.DropView("grand_totals"); err != nil {
		t.Fatal(err)
	}
	if vs := c.ViewsOn("branch_totals"); len(vs) != 0 {
		t.Fatalf("ViewsOn after drop = %v", vs)
	}
	if err := c.DropView("branch_totals"); err != nil {
		t.Fatal(err)
	}

	// A stacked view cannot use X-lock maintenance, MIN/MAX, or a join; a
	// deferred parent requires a deferred child.
	c = testCatalog(t)
	if _, err := c.AddView(View{
		Name: "parent", Kind: ViewAggregate, Source: "accounts",
		GroupBy:  []string{"branch"},
		Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("balance")}},
		Strategy: StrategyDeferred,
	}); err != nil {
		t.Fatal(err)
	}
	bad := []View{
		{Name: "x", Kind: ViewAggregate, Source: "parent", GroupBy: []string{"branch"},
			Aggs:     []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("sum_balance")}},
			Strategy: StrategyXLock},
		{Name: "x", Kind: ViewAggregate, Source: "parent", GroupBy: []string{"branch"},
			Aggs:     []expr.AggSpec{{Func: expr.AggMax, Arg: expr.NamedCol("sum_balance")}},
			Strategy: StrategyDeferred},
		{Name: "x", Kind: ViewProjection, Source: "parent", Project: []string{"branch"}},
		{Name: "x", Kind: ViewAggregate, Source: "parent", GroupBy: []string{"branch"},
			Aggs: []expr.AggSpec{{Func: expr.AggSum, Arg: expr.NamedCol("sum_balance")}},
			// escrow child under a deferred parent would read torn parent state
			Strategy: StrategyEscrow},
	}
	for i, def := range bad {
		if _, err := c.AddView(def); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad stacked def %d: err = %v", i, err)
		}
	}
}
