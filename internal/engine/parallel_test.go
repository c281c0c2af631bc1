package engine_test

import (
	"fmt"
	"testing"

	"mix/internal/engine"
	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmlio"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// Sequential-equivalence coverage: a parallel execution must return exactly
// the sequential result — same tuples, same order, same rendered bytes — at
// every parallelism level, because the exchange layer only overlaps *when*
// work happens, never *what* order it is delivered in.

var parLevels = []int{0, 1, 2, 3, 8}

func materializeAt(t *testing.T, plan *translate.Result, cat *source.Catalog, parallelism int) string {
	t.Helper()
	prog, err := engine.CompileWith(plan.Plan, cat, engine.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run()
	defer res.Close()
	out := res.Materialize().Pretty()
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelFigure7Identical pins the Figure 7 golden query: identical
// rendered results at every parallelism level.
func TestParallelFigure7Identical(t *testing.T) {
	defer testleak.Check(t)()
	cat, _ := workload.PaperCatalog()
	tr := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	want := materializeAt(t, tr, cat, 0)
	for _, p := range parLevels[1:] {
		if got := materializeAt(t, tr, cat, p); got != want {
			t.Fatalf("parallelism %d diverged:\n--- got ---\n%s\n--- want ---\n%s", p, got, want)
		}
	}
}

// twoSourceCatalog builds two XML documents joined on a key child.
func twoSourceCatalog(t *testing.T, nA, nB int) *source.Catalog {
	t.Helper()
	cat := source.NewCatalog()
	addItems := func(id string, n int, stride int) {
		xml := "<doc>"
		for i := 0; i < n; i++ {
			xml += fmt.Sprintf("<item><k>k%d</k><v>%s%d</v></item>", i*stride, id, i)
		}
		xml += "</doc>"
		root, err := xmlio.ParseWith(xml, xmlio.Options{IDPrefix: id})
		if err != nil {
			t.Fatal(err)
		}
		root.ID = xtree.ID("&" + id)
		cat.AddXMLDoc("&"+id, root)
	}
	addItems("a", nA, 1)
	addItems("b", nB, 2) // every second key matches
	return cat
}

const joinQuery = `FOR $A IN document(&a)/item, $B IN document(&b)/item WHERE $A/k = $B/k RETURN <R> $A $B </R>`

// TestParallelJoinIdentical pins a hash equi-join over two documents.
func TestParallelJoinIdentical(t *testing.T) {
	defer testleak.Check(t)()
	cat := twoSourceCatalog(t, 40, 30)
	tr := translate.MustTranslate(xquery.MustParse(joinQuery), "result")
	want := materializeAt(t, tr, cat, 0)
	for _, p := range parLevels[1:] {
		if got := materializeAt(t, tr, cat, p); got != want {
			t.Fatalf("parallelism %d diverged:\n--- got ---\n%s\n--- want ---\n%s", p, got, want)
		}
	}
}

// TestParallelMetricsIdentical asserts the per-operator tuple counts are the
// same work at every level: parallelism moves work across goroutines, it
// must not create or skip any.
func TestParallelMetricsIdentical(t *testing.T) {
	defer testleak.Check(t)()
	cat, _ := workload.PaperCatalog()
	tr := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	counts := func(p int) string {
		prog, err := engine.CompileWith(tr.Plan, cat, engine.Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		res, m := prog.RunWithMetrics()
		defer res.Close()
		res.Materialize()
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return m.String()
	}
	want := counts(0)
	for _, p := range parLevels[1:] {
		if got := counts(p); got != want {
			t.Fatalf("parallelism %d metrics diverged: got %s, want %s", p, got, want)
		}
	}
}

// countingDoc counts Open calls — the laziness probe.
type countingDoc struct {
	inner source.Doc
	opens int
}

func (d *countingDoc) RootID() string { return d.inner.RootID() }
func (d *countingDoc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	d.opens++
	return d.inner.Open(opts)
}

// TestParallelEmptyLeftLaziness reproduces PR 2's empty-left guarantee under
// parallelism: a join whose probe side is empty never opens the build side,
// because the build drain is kicked only once a first probe tuple exists.
func TestParallelEmptyLeftLaziness(t *testing.T) {
	defer testleak.Check(t)()
	for _, p := range []int{1, 4} {
		cat := source.NewCatalog()
		emptyRoot, err := xmlio.ParseWith("<doc></doc>", xmlio.Options{IDPrefix: "a"})
		if err != nil {
			t.Fatal(err)
		}
		emptyRoot.ID = "&a"
		cat.AddXMLDoc("&a", emptyRoot)

		bRoot, err := xmlio.ParseWith("<doc><item><k>k0</k><v>b0</v></item></doc>", xmlio.Options{IDPrefix: "b"})
		if err != nil {
			t.Fatal(err)
		}
		bRoot.ID = "&b"
		cat.AddXMLDoc("&b", bRoot)
		inner, err := cat.Resolve("&b")
		if err != nil {
			t.Fatal(err)
		}
		counting := &countingDoc{inner: inner}
		cat.AddDoc("&b", counting)

		tr := translate.MustTranslate(xquery.MustParse(joinQuery), "result")
		prog, err := engine.CompileWith(tr.Plan, cat, engine.Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		res := prog.Run()
		if n := res.Materialize().String(); res.Err() != nil {
			t.Fatalf("parallelism %d: %v (%s)", p, res.Err(), n)
		}
		res.Close()
		if counting.opens != 0 {
			t.Fatalf("parallelism %d: empty probe side still opened the build side %d times", p, counting.opens)
		}
	}
}

// TestParallelEarlyClose abandons a partially navigated parallel result;
// Close must cancel and join every producer goroutine (the deferred leak
// check is the assertion).
func TestParallelEarlyClose(t *testing.T) {
	defer testleak.Check(t)()
	cat := twoSourceCatalog(t, 200, 150)
	tr := translate.MustTranslate(xquery.MustParse(joinQuery), "result")
	prog, err := engine.CompileWith(tr.Plan, cat, engine.Options{Parallelism: 8, ExchangeBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := prog.Run()
	if _, ok := res.Root.Kids().Get(0); !ok {
		t.Fatal("no first result tuple")
	}
	res.Close()
	res.Close() // idempotent
}
