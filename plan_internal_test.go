package mix

import (
	"testing"

	"mix/internal/compose"
	"mix/internal/workload"
	"mix/internal/xquery"
)

// TestQueryFromPlanningAllocs pins what planning a browse-shaped in-place
// query costs in allocations: decontextualize at the fifth CustRec of the
// rootv view, compose with the view, rewrite, push SQL — QueryFrom up to the
// compile. The rewriter collects the plan's variables only when a rule mints
// fresh names and renders no plan per step unless traced; doing both on
// every fired rule cost about 14 600 allocations here.
func TestQueryFromPlanningAllocs(t *testing.T) {
	m := New()
	m.AddRelationalSource(workload.ScaleDB("db1", 50, 5, 1))
	for alias, target := range map[string]string{"&root1": "&db1.customer", "&root2": "&db1.orders"} {
		if err := m.AliasSource(alias, target); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	doc, err := m.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec := doc.Root().Down()
	for i := 1; i < 5; i++ {
		rec = rec.Right()
	}
	ctx, ok := rec.Context()
	if !ok {
		t.Fatal("a CustRec cannot be decontextualized")
	}
	origin := &compose.OriginPlan{Plan: doc.Origin().Plan, Tags: doc.Origin().Tags}
	q := xquery.MustParse(`FOR $O IN document(root)/OrderInfo WHERE $O/orders/value < 50000 RETURN $O`)
	plan := func() {
		composed, err := compose.Decontextualize(origin, ctx, q, "root", "result")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.optimize(composed.Plan); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, plan); n > 4000 {
		t.Fatalf("planning an in-place query made %.0f allocations; want at most 4000", n)
	}
}
