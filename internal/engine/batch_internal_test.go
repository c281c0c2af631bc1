package engine

import (
	"errors"
	"testing"

	"mix/internal/rewrite"
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// pullCounter counts scalar pulls on a cursor (window-growth assertions).
type pullCounter struct {
	in    Cursor
	pulls int
}

func (p *pullCounter) Next() (Tuple, bool, error) {
	p.pulls++
	return p.in.Next()
}

func tupleSource(vals ...string) ([]xmas.Var, Cursor) {
	schema := []xmas.Var{"$v"}
	i := 0
	return schema, cursorFunc(func() (Tuple, bool, error) {
		if i >= len(vals) {
			return Tuple{}, false, nil
		}
		v := vals[i]
		i++
		return NewTuple(schema, []Value{NodeVal{E: NewLeaf("", v)}}), true, nil
	})
}

// alwaysTrue is the constant condition 1 = 1.
var alwaysTrue = xmas.Cond{
	Left:  xmas.Operand{IsConst: true, Const: "1"},
	Op:    xtree.OpEQ,
	Right: xmas.Operand{IsConst: true, Const: "1"},
}

func TestBatchInputDeliverThenFail(t *testing.T) {
	schema := []xmas.Var{"$v"}
	i := 0
	boom := errors.New("boom")
	src := cursorFunc(func() (Tuple, bool, error) {
		if i == 2 {
			return Tuple{}, false, boom
		}
		i++
		return NewTuple(schema, []Value{NodeVal{E: NewLeaf("", "x")}}), true, nil
	})
	bi := &batchInput{in: src}
	b, ok, err := bi.pull(8)
	if err != nil || !ok || b.Len() != 2 {
		t.Fatalf("first pull = (%d, %v, %v), want 2 rows before the error", b.Len(), ok, err)
	}
	if _, ok, err := bi.pull(8); ok || !errors.Is(err, boom) {
		t.Fatalf("second pull = (%v, %v), want the held error", ok, err)
	}
	if _, ok, err := bi.pull(8); ok || err != nil {
		t.Fatalf("third pull = (%v, %v), want clean end", ok, err)
	}
}

// TestVecSelectFirstAnswerWindow pins the adaptive window: the first scalar
// Next through a vectorized select pulls exactly one input tuple, so the
// first answer never waits for a whole batch to fill.
func TestVecSelectFirstAnswerWindow(t *testing.T) {
	_, src := tupleSource("a", "b", "c", "d", "e", "f", "g", "h")
	pc := &pullCounter{in: src}
	cur := newVecSelect(pc, alwaysTrue, 64)
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next = (%v, %v)", ok, err)
	}
	if pc.pulls != 1 {
		t.Fatalf("first answer pulled %d input tuples, want exactly 1", pc.pulls)
	}
	// Subsequent demand grows the window geometrically toward the cap.
	for i := 0; i < 7; i++ {
		if _, ok, err := cur.Next(); !ok || err != nil {
			t.Fatalf("Next %d = (%v, %v)", i, ok, err)
		}
	}
	if pc.pulls > 8+1 {
		t.Fatalf("8 answers cost %d pulls; window not bounded", pc.pulls)
	}
}

// TestVecJoinEmptyLeftLaziness pins the build-side laziness invariant at
// the navigation window (1) and a query window: an empty probe side must
// never open the build side of a hash or nested-loop join.
func TestVecJoinEmptyLeftLaziness(t *testing.T) {
	empty := func() Cursor {
		return cursorFunc(func() (Tuple, bool, error) { return Tuple{}, false, nil })
	}
	rightOpened := false
	right := func() Cursor {
		rightOpened = true
		return empty()
	}
	out := []xmas.Var{"$l", "$r"}
	for _, w := range []int{1, 16} {
		cur := newVecHashJoin(nil, empty(), right, out, "$l", "$r", w)
		if _, ok, err := cur.Next(); ok || err != nil {
			t.Fatalf("window %d: hash join over empty left = (%v, %v)", w, ok, err)
		}
		if rightOpened {
			t.Fatalf("window %d: empty left side opened the hash build side", w)
		}
		cur = newVecNLJoin(nil, empty(), right, out, nil, w)
		if _, ok, err := cur.Next(); ok || err != nil {
			t.Fatalf("window %d: NL join over empty left = (%v, %v)", w, ok, err)
		}
		if rightOpened {
			t.Fatalf("window %d: empty left side materialized the NL right side", w)
		}
	}
}

// failAfterDoc delivers n items and then a terminal error.
type failAfterDoc struct{ n int }

var errSourceLost = errors.New("source connection lost")

func (d failAfterDoc) RootID() string { return "&flaky" }

func (d failAfterDoc) Open(source.ScanOpts) (source.ElemCursor, error) {
	return &failAfterCursor{left: d.n}, nil
}

type failAfterCursor struct{ left, i int }

func (c *failAfterCursor) Next() (*xtree.Node, bool, error) {
	if c.i == c.left {
		return nil, false, errSourceLost
	}
	c.i++
	return xtree.NewElem(xtree.ID("&item"+string(rune('0'+c.i))), "item", xtree.Text("v")), true, nil
}

func (c *failAfterCursor) Close() {}

// TestScalarOperatorUnderWindowDeliverThenFail runs the operators that have
// no columnar body beneath a window-64 consumer, over a source that fails
// after three items: whatever the operator produced before the failure must
// arrive, in order, before the error — through either cursor face.
func TestScalarOperatorUnderWindowDeliverThenFail(t *testing.T) {
	cat := source.NewCatalog()
	cat.AddDoc("&flaky", failAfterDoc{n: 3})
	cat.AddXMLDoc("&one", xtree.NewElem("&one", "list", xtree.NewElem("&one.0", "x")))
	flaky := &xmas.MkSrc{SrcID: "&flaky", Out: "$A"}
	for _, tc := range []struct {
		name string
		op   xmas.Op
		want int // tuples delivered before the error
	}{
		// semiJoin streams its kept side.
		{"semiJoin", &xmas.SemiJoin{L: flaky, R: &xmas.MkSrc{SrcID: "&one", Out: "$B"}, Keep: xmas.KeepLeft}, 3},
		// The stateful groupBy buffers its whole input, so nothing precedes
		// the error.
		{"groupBy", &xmas.GroupBy{In: flaky, Keys: []xmas.Var{"$A"}, Out: "$X"}, 0},
	} {
		op, err := compile(&xmas.Select{In: tc.op, Cond: alwaysTrue}, cat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		open := func() Cursor {
			ctx := NewCtx(cat)
			ctx.opts.BatchExec = 64
			return op(ctx)
		}

		cur := open()
		for i := 0; i < tc.want; i++ {
			tup, ok, err := cur.Next()
			if !ok || err != nil {
				t.Fatalf("%s: Next %d = (%v, %v), want a tuple", tc.name, i, ok, err)
			}
			if id, _ := idOf(tup.MustGet("$A")); id != "&item"+string(rune('1'+i)) {
				t.Fatalf("%s: tuple %d is %s: out of order", tc.name, i, id)
			}
		}
		if _, ok, err := cur.Next(); ok || !errors.Is(err, errSourceLost) {
			t.Fatalf("%s: after %d tuples Next = (%v, %v), want the source error", tc.name, tc.want, ok, err)
		}

		bc := open().(BatchCursor)
		if tc.want > 0 {
			b, ok, err := bc.NextBatch(64)
			if !ok || err != nil || b.Len() != tc.want {
				t.Fatalf("%s: NextBatch(64) = (%d rows, %v, %v), want %d rows before the error", tc.name, b.Len(), ok, err, tc.want)
			}
		}
		if _, ok, err := bc.NextBatch(64); ok || !errors.Is(err, errSourceLost) {
			t.Fatalf("%s: NextBatch after the rows = (%v, %v), want the source error", tc.name, ok, err)
		}
	}
}

// rootvResult starts the paper's Q1 view the way Mediator.Open runs it:
// rewritten, pushed down, and with the window pinned at one row.
func rootvResult(t *testing.T, cat *source.Catalog) *Result {
	t.Helper()
	tr, err := translate.Translate(xquery.MustParse(workload.Q1), "rootv")
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
	prog, err := CompileWith(plan, cat, Options{BatchExec: 1})
	if err != nil {
		t.Fatal(err)
	}
	return prog.Run()
}

// TestNavigationShipsOnDemand pins the laziness contract of navigation
// sessions (window 1) in the paper's own currency, source tuples shipped.
// The counts are those of the tuple-at-a-time interpreter at commit 0a6d8cb,
// the last one that had it; the k=1 browse is the browse1_shipped = 6 that
// E19's retired benchmark record (EXPERIMENTS.md) held at every window cap.
func TestNavigationShipsOnDemand(t *testing.T) {
	cat, db := workload.PaperCatalog()
	rootvResult(t, cat).Root.Kids().Get(0)
	if got := db.Stats().TuplesShipped; got != 1 {
		t.Fatalf("open + one down on the paper DB shipped %d tuples, want 1", got)
	}
	// Browse k CustRecs of 300 customers x 5 orders: into the customer
	// element and the first OrderInfo of each, then right to the next.
	for _, tc := range []struct {
		k       int
		shipped int64
	}{{1, 6}, {5, 26}, {15, 76}} {
		cat, db := workload.ScaleCatalog(300, 5, 42)
		kids := rootvResult(t, cat).Root.Kids()
		for i := 0; i < tc.k; i++ {
			rec, ok := kids.Get(i)
			if !ok {
				t.Fatalf("k=%d: only %d CustRecs", tc.k, i)
			}
			if c, ok := rec.Kids().Get(0); ok {
				c.Kids().Get(0)
			}
			if oi, ok := rec.Kids().Get(1); ok {
				oi.Kids().Get(0)
			}
			kids.Get(i + 1)
		}
		if got := db.Stats().TuplesShipped; got != tc.shipped {
			t.Fatalf("browsing %d CustRecs shipped %d tuples, want %d", tc.k, got, tc.shipped)
		}
	}
}

// TestCountingCursorBatchFace verifies metrics count whole chunks through the
// batch face, matching what the scalar face would have counted.
func TestCountingCursorBatchFace(t *testing.T) {
	m := NewMetrics()
	_, src := tupleSource("a", "b", "c", "d", "e")
	cc := &countingCursor{in: src, c: m.counter("src")}
	bi := &batchInput{in: cc}
	total := 0
	for {
		b, ok, err := bi.pull(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += b.Len()
	}
	if total != 5 || m.Count("src") != 5 {
		t.Fatalf("batch face delivered %d, counted %d; want 5/5", total, m.Count("src"))
	}
}

// TestVecCursorBatchFaceSlicing checks NextBatch serves buffered rows in
// caller-sized slices without re-producing.
func TestVecCursorBatchFaceSlicing(t *testing.T) {
	produced := 0
	schema := []xmas.Var{"$v"}
	v := newVecCursor(64, func(max int) (Batch, bool, error) {
		if produced > 0 {
			return Batch{}, false, nil
		}
		produced++
		col := make([]Value, 5)
		for i := range col {
			col[i] = NodeVal{E: NewLeaf("", "x")}
		}
		return Batch{schema: schema, cols: [][]Value{col}, n: 5}, true, nil
	}, nil)
	sizes := []int{2, 2, 2}
	got := 0
	for _, want := range sizes {
		b, ok, err := v.NextBatch(2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() > want {
			t.Fatalf("NextBatch(2) returned %d rows", b.Len())
		}
		got += b.Len()
	}
	if got != 5 || produced != 1 {
		t.Fatalf("sliced delivery got %d rows over %d productions; want 5 rows, 1 production", got, produced)
	}
}
