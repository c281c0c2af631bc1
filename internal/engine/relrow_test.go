package engine

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"mix/internal/relstore"
	"mix/internal/rewrite"
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// ordersRQ is an rQ over the Figure 2 orders with a map of every kind: two
// variables on the whole tuple, a partial tuple, a column, a value.
func ordersRQ() *xmas.RelQuery {
	all := []xmas.ColSpec{{Pos: 0, Label: "orid"}, {Pos: 1, Label: "cid"}, {Pos: 2, Label: "value"}}
	return &xmas.RelQuery{
		Server: "db1",
		SQL:    "SELECT o.orid, o.cid, o.value FROM orders o",
		Maps: []xmas.VarMap{
			{V: "$doc", ElemLabel: "orders", Cols: all, KeyCols: []int{0}},
			{V: "$O", ElemLabel: "orders", Cols: all, KeyCols: []int{0}},
			{V: "$P", ElemLabel: "orders", Cols: []xmas.ColSpec{{Pos: 0, Label: "orid"}, {Pos: 2, Label: "value"}}, KeyCols: []int{0}},
			{V: "$C", ElemLabel: "cid", Cols: []xmas.ColSpec{{Pos: 1}}, KeyCols: []int{0}},
			{V: "$V", KeyCols: []int{2}},
		},
	}
}

// drainOrders runs ordersRQ and returns its tuples and the orders rows.
func drainOrders(t *testing.T) ([]Tuple, [][]relstore.Datum, relstore.Schema) {
	t.Helper()
	cat, db := workload.PaperCatalog()
	open, err := CompileFragment(ordersRQ(), cat)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := drain(open())
	if err != nil {
		t.Fatal(err)
	}
	tab, _ := db.Table("orders")
	rows := tab.Rows()
	if len(tuples) != len(rows) {
		t.Fatalf("rQ delivered %d tuples for %d rows", len(tuples), len(rows))
	}
	return tuples, rows, tab.Schema
}

func elemOf(t *testing.T, v Value) *Elem {
	t.Helper()
	e, ok := nodeOf(v)
	if !ok || e == nil {
		t.Fatalf("%T binds no element", v)
	}
	return e
}

// TestRowTuplesAreWrapperTuples: the elements rQ's bindings stand for are
// the wrapper's (Figure 2) — ids &key and &key.col, the columns in map order,
// the value as a column's only child — stamped with their variable, and the
// variables on the same columns share one tuple per row.
func TestRowTuplesAreWrapperTuples(t *testing.T) {
	tuples, rows, schema := drainOrders(t)
	for i, tup := range tuples {
		want := wrapper.TupleElem(schema, rows[i], i)
		doc, o := elemOf(t, tup.MustGet("$doc")), elemOf(t, tup.MustGet("$O"))
		for _, e := range []*Elem{doc, o} {
			if got := e.Materialize(); !xtree.Equal(got, want) {
				t.Fatalf("row %d: %s, the wrapper's is %s", i, got, want)
			}
		}
		if o.Prov == nil || o.Prov.Var != "$O" || len(o.Prov.Fixed) != 1 || o.Prov.Fixed[0] != (Fixation{Var: "$O", ID: string(want.ID)}) {
			t.Fatalf("row %d: $O provenance %+v", i, o.Prov)
		}
		if doc.Kids() != o.Kids() {
			t.Fatalf("row %d: $doc and $O do not share their tuple's children", i)
		}
		p := elemOf(t, tup.MustGet("$P")).Materialize()
		if p.ID != want.ID || len(p.Children) != 2 || !xtree.Equal(p.Children[1], want.Children[2]) {
			t.Fatalf("row %d: partial tuple %s", i, p)
		}
		c := elemOf(t, tup.MustGet("$C"))
		if got := c.Materialize(); got.ID != want.ID+".cid" || got.Label != "cid" || !xtree.Equal(got.Children[0], want.Children[1].Children[0]) {
			t.Fatalf("row %d: column %s", i, got)
		}
		if a, _ := c.Atom(); a != rows[i][1].S {
			t.Fatalf("row %d: column atom %q", i, a)
		}
		if v := elemOf(t, tup.MustGet("$V")); !v.IsLeaf() || v.ID != "" || v.Label != rows[i][2].String() {
			t.Fatalf("row %d: value %+v", i, v)
		}
	}
}

// TestRowTuplesWaitForNavigation: ids, atoms, order and join keys are read
// from the row; a tuple is built only when its element is asked for, once
// per row for every variable on it, and its children only on navigation.
func TestRowTuplesWaitForNavigation(t *testing.T) {
	tuples, _, _ := drainOrders(t)
	for _, tup := range tuples {
		for _, v := range tup.Schema() {
			val := tup.MustGet(v)
			orderKey(val)
			joinKeyOf(val)
			preResolve(val)
			atomOf(val)
		}
		tup.Key(tup.Schema())
		for _, v := range tup.Schema() {
			if e := tup.MustGet(v).(*rowRef).elem.Load(); e != nil {
				t.Fatalf("reading keys built %s's element %s", v, e.ID)
			}
		}
		r := tup.MustGet("$O").(*rowRef)
		body := r.row.bodies[r.spec.slot].Load()
		if body == nil {
			t.Fatal("orderKey of a tuple did not build its id")
		}
		if body.kids.Load() != nil {
			t.Fatal("reading keys built the tuple's children")
		}
		if elemOf(t, r).body != body || elemOf(t, tup.MustGet("$doc")).body != body {
			t.Fatal("a variable's element does not share the row's tuple")
		}
		if body.kids.Load() != nil {
			t.Fatal("building the element built its children")
		}
		elemOf(t, r).Kids().Get(0)
		if body.kids.Load() == nil {
			t.Fatal("navigation did not build the children")
		}
	}
}

// TestRowElementsBuiltOnceBesideReaders audits (under -race) the memos a
// row's bindings share: under intra-query parallelism an exchange producer
// can ask for a tuple's id, element or children while the consumer navigates
// the same row. Whoever gets there first builds; everyone sees that one.
func TestRowElementsBuiltOnceBesideReaders(t *testing.T) {
	tuples, _, _ := drainOrders(t)
	const readers = 4
	got := make([][]*Elem, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, tup := range tuples {
				for _, v := range tup.Schema() {
					val := tup.MustGet(v)
					orderKey(val)
					e, _ := nodeOf(val)
					if k, ok := e.Kids().Get(0); ok {
						got[g] = append(got[g], k)
					}
					got[g] = append(got[g], e)
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("reader %d built its own element %d", g, i)
			}
		}
	}
}

// TestRelQueryFeedsBatches: rQ is a batch producer — a consumer's batch pull
// reaches the source cursor directly, one batch for as many rows as asked.
func TestRelQueryFeedsBatches(t *testing.T) {
	cat, db := workload.PaperCatalog()
	open, err := CompileFragment(ordersRQ(), cat)
	if err != nil {
		t.Fatal(err)
	}
	bc, ok := open().(BatchCursor)
	if !ok {
		t.Fatal("rQ's cursor has no batch face")
	}
	tab, _ := db.Table("orders")
	b, ok, err := bc.NextBatch(64)
	if err != nil || !ok || b.Len() != len(tab.Rows()) {
		t.Fatalf("NextBatch(64) = %d rows, %v, %v; want all %d", b.Len(), ok, err, len(tab.Rows()))
	}
	if _, ok := b.cols[0][0].(*rowRef); !ok {
		t.Fatalf("rQ binds %T, not row references", b.cols[0][0])
	}
}

// TestRowStepsArePathStream: a path step from a row's tuple reaches exactly
// what pathStream reaches in the tuple's element, in the same order, with
// the same ids.
func TestRowStepsArePathStream(t *testing.T) {
	tuples, _, _ := drainOrders(t)
	paths := []xmas.Path{
		{"orders"}, {"customer"}, {"*"},
		{"orders", "value"}, {"orders", "*"}, {"orders", "nope"},
		{"orders", "value", "2400"}, {"orders", "*", "*"}, {"*", "cid", "XYZ123"},
		{"orders", "value", "2400", "x"},
	}
	for _, tup := range tuples {
		r := tup.MustGet("$O").(*rowRef)
		for _, path := range paths {
			var want []string
			next := pathStream(r.element(), path)
			for e, ok := next(); ok; e, ok = next() {
				want = append(want, e.ID+"/"+e.Label)
			}
			var got []string
			steps := rowSteps{r: r, path: path}
			for spec, ok := steps.next(); ok; spec, ok = steps.next() {
				e := steps.bind(spec, "$X").element()
				if e.Prov.Var != "$X" {
					t.Fatalf("%v: match stamped %s", path, e.Prov.Var)
				}
				got = append(got, e.ID+"/"+e.Label)
			}
			if len(got) != len(want) {
				t.Fatalf("%v on %s: steps reach %v, pathStream %v", path, r.id(), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v on %s: steps reach %v, pathStream %v", path, r.id(), got, want)
				}
			}
		}
	}
}

// normKey is the hash-join key the engine used before joinKey: a number's
// canonical text, any other atom as is.
func normKey(atom string) string {
	if f, err := strconv.ParseFloat(atom, 64); err == nil {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return atom
}

// TestJoinKeyMatchesLikeNormKey: two atoms' join keys are equal exactly when
// their canonical texts were, so hash joins and semi-joins pair the same
// rows; and a key is made without allocating — a non-numeric atom's
// included, which strconv.ParseFloat allocated an error for.
func TestJoinKeyMatchesLikeNormKey(t *testing.T) {
	atoms := []string{"1", "1.0", "01", "+1", "1e0", "-0", "0", "0.0", "NaN", "nan", "-NaN", "+Inf", "inf", "-Inf",
		"1e400", "abc", "", "C000001", "ITEM00012", "0x10", "16", "2400", "2400.5"}
	leaf := func(a string) Value { return NodeVal{E: NewLeaf("", a)} }
	for _, a := range atoms {
		for _, b := range atoms {
			ka, _ := joinKeyOf(leaf(a))
			kb, _ := joinKeyOf(leaf(b))
			if (ka == kb) != (normKey(a) == normKey(b)) {
				t.Errorf("%q, %q: join keys equal %v, canonical texts %q, %q", a, b, ka == kb, normKey(a), normKey(b))
			}
		}
	}
	// A row's numbers key as their texts would.
	sh := newRelShape([]xmas.VarMap{{V: "$v"}})
	for _, d := range []relstore.Datum{relstore.Int(2400), relstore.Int(-7), relstore.Float(2400), relstore.Float(math.NaN()), relstore.Float(math.Copysign(0, -1)), relstore.Str("2400.0")} {
		r := &rowRef{row: &relRow{vals: []relstore.Datum{d}}, spec: sh.specs[0], v: "$v"}
		got, _ := joinKeyOf(r)
		if want, _ := joinKeyOf(leaf(d.String())); got != want {
			t.Errorf("%v: row key %+v, its text's %+v", d, got, want)
		}
	}
	for _, a := range []string{"ITEM00012", "C000001", "2400"} {
		v := leaf(a)
		if n := testing.AllocsPerRun(100, func() { joinKeyOf(v) }); n != 0 {
			t.Errorf("joinKeyOf(%q) allocates %v times", a, n)
		}
	}
}

// TestTupleKeyKeepsPartsApart: Key tells apart key lists whose parts only
// join alike — ("a\x00", "b") and ("a", "\x00b") merged into one group under
// a separator byte.
func TestTupleKeyKeepsPartsApart(t *testing.T) {
	vars := []xmas.Var{"$A", "$B"}
	tup := func(a, b string) Tuple {
		return NewTuple(vars, []Value{NodeVal{E: NewLeaf("", a)}, NodeVal{E: NewLeaf("", b)}})
	}
	x, y := tup("a\x00", "b"), tup("a", "\x00b")
	if x.Key(vars) == y.Key(vars) {
		t.Fatalf("Key(%q) == Key(%q)", x, y)
	}
	if x.Key(vars) != tup("a\x00", "b").Key(vars) {
		t.Fatal("Key is not a function of the values")
	}
	// Row references render the same key as the elements they stand for.
	tuples, _, _ := drainOrders(t)
	for _, tp := range tuples {
		vs := tp.Schema()
		built := make([]Value, len(vs))
		for i, v := range vs {
			built[i] = NodeVal{E: elemOf(t, tp.MustGet(v))}
		}
		if got, want := tp.Key(vs), NewTuple(vs, built).Key(vs); got != want {
			t.Fatalf("row key %q, its elements' %q", got, want)
		}
	}
}

// TestQSupplyBuildsOnlyAnswerItems: draining QSupply builds an item tuple
// for exactly the items that reach the answer. Its plan is crElt(Avail) over
// a semi-join of rQ results — items with stock rows of qty < 5, one query on
// db1, then with their suppliers. The semi-join matches every row on its
// Datums and builds no element, not even for the rows it keeps (it reads a
// kept row's tuple id to drop duplicates), so the only tuples built are the
// ones crElt wraps into the answer: one per Avail element.
func TestQSupplyBuildsOnlyAnswerItems(t *testing.T) {
	db1, db2 := workload.SupplyDBs(300, 30, 3, 20020208)
	cat := source.NewCatalog()
	cat.AddRelDB(db1)
	cat.AddRelDB(db2)
	tr, err := translate.Translate(xquery.MustParse(workload.QSupply), "result")
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := rewrite.Optimize(tr.Plan, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err = sqlgen.Push(plan, cat); err != nil {
		t.Fatal(err)
	}
	td, ok := plan.(*xmas.TD)
	if !ok {
		t.Fatalf("QSupply plans to %s", xmas.Format(plan))
	}
	cr, ok := td.In.(*xmas.CrElt)
	if !ok {
		t.Fatalf("QSupply plans to %s", xmas.Format(plan))
	}
	open, err := CompileFragment(cr.In, cat)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := drain(open())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 || len(kept) >= 300 {
		t.Fatalf("the semi-joins keep %d items of 300; the test needs a selective answer", len(kept))
	}
	for _, tup := range kept {
		for _, v := range tup.Schema() {
			r, ok := tup.MustGet(v).(*rowRef)
			if !ok {
				t.Fatalf("%s binds %T, not a row reference", v, tup.MustGet(v))
			}
			if r.elem.Load() != nil {
				t.Fatalf("the semi-joins built %s's element %s", v, r.elem.Load().ID)
			}
			for i := range r.row.bodies {
				if b := r.row.bodies[i].Load(); b != nil && b.kids.Load() != nil {
					t.Fatalf("the semi-joins built the children of %s", b.id)
				}
			}
		}
	}
	prog, err := Compile(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	answer := prog.Run().Root.Materialize()
	if len(answer.Children) != len(kept) {
		t.Fatalf("QSupply answers %d items; the semi-joins keep %d", len(answer.Children), len(kept))
	}
	for _, avail := range answer.Children {
		if len(avail.Children) != 1 || avail.Children[0].Label != "item" {
			t.Fatalf("answer item %s", avail)
		}
	}
}
