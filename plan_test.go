package mix_test

import (
	"strings"
	"sync"
	"testing"

	"mix"
	"mix/internal/workload"
)

// prepare plans query from the root of med.
func prepare(t *testing.T, med *mix.Mediator, query string) *mix.Plan {
	t.Helper()
	p, err := med.Prepare(query, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drainPretty returns a function that materializes and closes a document
// and renders it without its root's id, the one thing two runs of one query
// may name differently; it takes a call's results whole:
// drainPretty(t)(p.Run()).
func drainPretty(t *testing.T) func(*mix.Document, error) string {
	return func(doc *mix.Document, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer doc.Close()
		tree := doc.Materialize()
		if err := doc.Err(); err != nil {
			t.Fatal(err)
		}
		tree.ID = ""
		return tree.Pretty()
	}
}

// TestPlanIsAValue: a Plan is planned once and then only read or run.
// Preparing and every reader ship nothing; two runs of one plan are
// independent documents with equal answers, so closing one leaves the other
// navigable; and one view's plan runs from many goroutines at once (run it
// under -race).
func TestPlanIsAValue(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	med.ResetStats()
	p := prepare(t, med, workload.Fig12)
	p.Explain()
	p.ExplainCost()
	p.Cost()
	if _, _, err := p.Trace(); err != nil {
		t.Fatal(err)
	}
	if s := med.Stats(); s.TuplesShipped != 0 || s.QueriesReceived != 0 {
		t.Fatalf("Prepare and the readers shipped %d tuples in %d queries", s.TuplesShipped, s.QueriesReceived)
	}

	a, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Root().Down() == nil || b.Root().Down() == nil {
		t.Fatalf("Fig12 has no first row: %v, %v", a.Err(), b.Err())
	}
	b.Close()
	got := drainPretty(t)(a, nil)
	if want := drainPretty(t)(p.Run()); got != want {
		t.Fatalf("with its twin closed, a run answered\n%s\nwant\n%s", got, want)
	}

	v, _ := med.View("rootv")
	wantView := drainPretty(t)(v.Run())
	var wg sync.WaitGroup
	answers := make([]string, 4)
	errs := make([]error, 4)
	for g := range answers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			doc, err := v.Run()
			if err != nil {
				errs[g] = err
				return
			}
			defer doc.Close()
			tree := doc.Materialize()
			tree.ID = ""
			answers[g], errs[g] = tree.Pretty(), doc.Err()
		}(g)
	}
	wg.Wait()
	for g := range answers {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if answers[g] != wantView {
			t.Fatalf("goroutine %d answered\n%s\nwant\n%s", g, answers[g], wantView)
		}
	}
}

// TestTraceEndsAtThePlanThatRuns: the trace's final executable plan is the
// plan Run runs, whatever the configuration. With cost-based optimization on
// QSupply the reorderer keeps the syntactic order, so the trace has no
// cost-reorder step; without rewriting it has no rule steps.
func TestTraceEndsAtThePlanThatRuns(t *testing.T) {
	for _, tc := range []struct {
		name      string
		med       *mix.Mediator
		query     string
		wantRules []string
	}{
		{"cost-opt QSupply", supplyMediator(t, mix.Config{CostOpt: true}), workload.QSupply,
			[]string{"translate", "getD-pushdown(6)", "select-pushdown", "getD-pushdown(6)", "dead-elim", "sql-split"}},
		{"no-rewrite Fig12", paperMediator(t, mix.Config{DisableRewrite: true}), workload.Fig12,
			[]string{"translate", "sql-split"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prepare(t, tc.med, tc.query)
			steps, final, err := p.Trace()
			if err != nil {
				t.Fatal(err)
			}
			if _, exec := p.Explain(); final != exec {
				t.Fatalf("trace ends at\n%s\nthe plan that runs is\n%s", final, exec)
			}
			var rules []string
			for _, s := range steps {
				rules = append(rules, s.Rule)
			}
			if got, want := strings.Join(rules, " "), strings.Join(tc.wantRules, " "); got != want {
				t.Fatalf("trace steps %s, want %s", got, want)
			}
			if last := steps[len(steps)-1].Plan; last != final {
				t.Fatalf("last step\n%s\nis not the final plan\n%s", last, final)
			}
		})
	}
}

// TestViewOverAView: a view defined over another view composes with it the
// way a query does, so opening it answers what querying its definition
// answers.
func TestViewOverAView(t *testing.T) {
	const def = `FOR $R IN document(rootv)/CustRec RETURN $R`
	med := paperMediator(t, mix.Config{})
	if _, err := med.DefineView("v2", def); err != nil {
		t.Fatal(err)
	}
	got := drainPretty(t)(med.Open("v2"))
	want := drainPretty(t)(med.Query(def))
	if got != want {
		t.Fatalf("Open(v2) answered\n%s\nthe query of its definition\n%s", got, want)
	}
}
