package mix

import (
	"sync"
	"testing"

	"mix/internal/compose"
	"mix/internal/qdom"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
)

// rootvMediator is a mediator over ScaleDB(n customers, 5 orders each) with
// the rootv view defined, as the benchmark's browse and report workloads set
// it up.
func rootvMediator(t testing.TB, n int) *Mediator {
	t.Helper()
	m := New()
	m.AddRelationalSource(workload.ScaleDB("db1", n, 5, 1))
	for alias, target := range map[string]string{"&root1": "&db1.customer", "&root2": "&db1.orders"} {
		if err := m.AliasSource(alias, target); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	return m
}

// custRec opens rootv and returns its k-th CustRec (from 1).
func custRec(t testing.TB, m *Mediator, k int) (*qdom.Document, *qdom.Node) {
	t.Helper()
	doc, err := m.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec := doc.Root().Child(k - 1)
	if rec == nil {
		t.Fatalf("rootv has no CustRec %d: %v", k, doc.Err())
	}
	return doc, rec
}

// skipUnderDebugGate skips an allocation pin when the debug gate is on
// (MIXDEBUG): the gate verifies the plan after every rewrite step, and the
// pins measure the planner that runs without it.
func skipUnderDebugGate(t *testing.T) {
	if xmas.DebugEnabled() {
		t.Skip("debug gate on: its per-step verification is not what the pin measures")
	}
}

const inPlaceOrders = `FOR $O IN document(root)/OrderInfo WHERE $O/orders/value < 50000 RETURN $O`

// TestQueryFromPlanningAllocs pins what planning a browse-shaped in-place
// query costs in allocations: decontextualize at the fifth CustRec of the
// rootv view, compose with the view, rewrite, push SQL — QueryFrom up to the
// compile. The planner allocates in proportion to what its rules change:
// untouched subtrees are shared, not copied, and its walks allocate nothing
// per node. This plan took about 2 600 allocations when every rewrite step
// rebuilt the plan, and about 14 600 when every step also rendered it.
func TestQueryFromPlanningAllocs(t *testing.T) {
	skipUnderDebugGate(t)
	m := rootvMediator(t, 50)
	doc, rec := custRec(t, m, 5)
	defer doc.Close()
	ctx, ok := rec.Context()
	if !ok {
		t.Fatal("a CustRec cannot be decontextualized")
	}
	origin := &compose.OriginPlan{Plan: doc.Origin().Plan, Tags: doc.Origin().Tags}
	q := xquery.MustParse(inPlaceOrders)
	var p Plan
	plan := func() {
		composed, err := compose.Decontextualize(origin, ctx, q, "root", "result")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.optimize(&p, composed.Plan); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, plan); n > 800 {
		t.Fatalf("planning an in-place query made %.0f allocations; want at most 800", n)
	}
}

// TestFig12FirstRowAllocs pins report's first answer: Fig12 composed with
// rootv, rewritten, pushed, compiled, run and navigated to its first row.
// Planning used to be most of it (about 2 600 allocations in all).
func TestFig12FirstRowAllocs(t *testing.T) {
	skipUnderDebugGate(t)
	m := rootvMediator(t, 100)
	first := func() {
		doc, err := m.Query(workload.Fig12)
		if err != nil {
			t.Fatal(err)
		}
		defer doc.Close()
		if doc.Root().Down() == nil {
			t.Fatalf("Fig12 has no first row: %v", doc.Err())
		}
	}
	if n := testing.AllocsPerRun(10, first); n > 1000 {
		t.Fatalf("Fig12 to its first row made %.0f allocations; want at most 1000", n)
	}
}

// TestConcurrentPlanningLeavesViewIntact: planned plans share every subtree
// planning did not change, so each in-place query composed with a view holds
// nodes of the view's own plans, and one mutation anywhere in decomposition,
// rewriting or SQL generation would change the view for every session. Many
// sessions plan against one view at once here (run it under -race), and the
// view's plans must print afterwards exactly as before.
func TestConcurrentPlanningLeavesViewIntact(t *testing.T) {
	m := rootvMediator(t, 20)
	v, _ := m.View("rootv")
	composeBefore, execBefore := xmas.Format(v.ComposePlan), xmas.Format(v.ExecPlan)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1 + g; k <= 12; k += 4 {
				doc, err := m.Open("rootv")
				if err != nil {
					errs <- err
					return
				}
				rec := doc.Root().Child(k - 1)
				ans, err := m.QueryFrom(rec, inPlaceOrders)
				if err == nil {
					ans.Root().Down()
					err = ans.Err()
					ans.Close()
				}
				doc.Close()
				if err == nil {
					var fig *qdom.Document
					if fig, err = m.Query(workload.Fig12); err == nil {
						fig.Root().Down()
						err = fig.Err()
						fig.Close()
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := xmas.Format(v.ComposePlan); got != composeBefore {
		t.Fatalf("planning changed the view's ComposePlan:\n%s\nwas:\n%s", got, composeBefore)
	}
	if got := xmas.Format(v.ExecPlan); got != execBefore {
		t.Fatalf("planning changed the view's ExecPlan:\n%s\nwas:\n%s", got, execBefore)
	}
}
