package rewrite_test

import (
	"strings"
	"testing"

	"mix/internal/compose"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// naiveFig13 builds the naive composition of the Figure 12 query with the
// Q1 view — paper Figure 13.
func naiveFig13(t *testing.T) xmas.Op {
	t.Helper()
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	q := xquery.MustParse(workload.Fig12)
	naive, err := compose.NaiveCompose(&compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}, q, "rootv", "res")
	if err != nil {
		t.Fatal(err)
	}
	return naive.Plan
}

// TestFigure13NaiveComposition checks the shape of the trivial composition:
// the query plan stacked on the view via a mkSrc whose input is the view's
// tD ("the mediator simply ... sets the input of the source operator as the
// plan p1").
func TestFigure13NaiveComposition(t *testing.T) {
	got := xmas.Format(naiveFig13(t))
	for _, want := range []string{
		"mkSrc(rootv, $doc)",
		"tD($V2, rootv)",
		"getD($doc.CustRec -> $R)",
		"getD($R.CustRec.OrderInfo -> $S)",
		"select($1 > 20000)",
		"crElt(CustRec, g($C), $W -> $V2)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Figure 13 plan missing %q:\n%s", want, got)
		}
	}
}

// TestFigure13to21RewriteTrace replays the full rewrite of paper Section 6:
// the naive composition optimizes through view unfolding (rule 11), path
// unfolding against crElt (rules 1-2), cat unfolding (rule 7), unnesting
// (rule 9), selection pushdown, dead-code elimination with join→semi-join
// conversion, and semijoin-below-groupBy (rule 12), ending in the Figure 21
// shape.
func TestFigure13to21RewriteTrace(t *testing.T) {
	opt, trace, err := rewrite.Optimize(naiveFig13(t), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every milestone rule of the paper's walk-through must have fired.
	fired := map[string]bool{}
	for _, s := range trace {
		fired[s.Rule] = true
	}
	for _, rule := range []string{
		"view-unfold(11)",
		"elt-self(2)",
		"elt-unfold(1)",
		"cat-unfold(7)",
		"apply-unfold(9)",
		"select-pushdown",
		"dead-elim",
		"semijoin-below-gBy(12)",
	} {
		if !fired[rule] {
			t.Errorf("rule %s never fired; trace: %v", rule, ruleNames(trace))
		}
	}

	got := xmas.Format(opt)
	// Figure 21 milestones: the semi-join sits below the groupBy; the
	// selection reached the source branch; the CustRec construction
	// survives at the mediator; the probe branch lost its constructors.
	for _, want := range []string{
		"crElt(CustRec, g($C), $W -> $V2)",
		"gBy([$C] -> $X)",
		"select($1 > 20000)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Figure 21 plan missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, "semijoin") {
		t.Errorf("join was not converted to a semi-join:\n%s", got)
	}
	// The semi-join must be under the gBy (rule 12): format indentation of
	// the semijoin line must exceed the gBy line's.
	lines := strings.Split(got, "\n")
	gbyIndent, sjIndent := -1, -1
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		indent := len(l) - len(trimmed)
		if strings.HasPrefix(trimmed, "gBy(") && gbyIndent < 0 {
			gbyIndent = indent
		}
		if strings.Contains(trimmed, "semijoin") && sjIndent < 0 {
			sjIndent = indent
		}
	}
	if sjIndent <= gbyIndent {
		t.Errorf("semi-join (indent %d) is not below gBy (indent %d):\n%s", sjIndent, gbyIndent, got)
	}
	if err := xmas.Validate(opt); err != nil {
		t.Fatal(err)
	}
}

func ruleNames(trace []rewrite.Step) []string {
	out := make([]string, len(trace))
	for i, s := range trace {
		out[i] = s.Rule
	}
	return out
}

// TestRewritePreservesSemantics runs naive and optimized plans over the
// paper database and requires identical results — for the Figure 12
// composition and several variations.
func TestRewritePreservesSemantics(t *testing.T) {
	queries := []string{
		workload.Fig12,
		`FOR $R IN document(rootv)/CustRec RETURN $R`,
		`FOR $R IN document(rootv)/CustRec $S IN $R/customer WHERE $S/addr = "NewYork" RETURN $R`,
		`FOR $S IN document(rootv)/CustRec/OrderInfo RETURN $S`,
		`FOR $R IN document(rootv)/CustRec $S IN $R/OrderInfo WHERE $S/orders/value < 500 RETURN $S`,
	}
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	for _, src := range queries {
		q := xquery.MustParse(src)
		naive, err := compose.NaiveCompose(&compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}, q, "rootv", "res")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		opt, _, err := rewrite.Optimize(naive.Plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}

		run := func(plan xmas.Op) *xtree.Node {
			cat, _ := workload.PaperCatalog()
			prog, err := engine.Compile(plan, cat)
			if err != nil {
				t.Fatalf("%s: compile: %v", src, err)
			}
			res := prog.Run()
			m := res.Materialize()
			if err := res.Err(); err != nil {
				t.Fatalf("%s: run: %v", src, err)
			}
			return m
		}
		a, b := run(naive.Plan), run(opt)
		if !xtree.EqualShape(a, b) {
			t.Errorf("%s: naive and optimized differ:\n%s\nvs\n%s", src, a.Pretty(), b.Pretty())
		}
	}
}

// TestUnsatisfiablePath: a query navigating a path the view never constructs
// rewrites to an empty plan (Table 2 rule 4 / ∅).
func TestUnsatisfiablePath(t *testing.T) {
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	q := xquery.MustParse(`FOR $R IN document(rootv)/NoSuchThing RETURN $R`)
	naive, err := compose.NaiveCompose(&compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}, q, "rootv", "res")
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := rewrite.Optimize(naive.Plan, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	td := opt.(*xmas.TD)
	if _, isEmpty := td.In.(*xmas.Empty); !isEmpty {
		t.Fatalf("plan should reduce to empty:\n%s", xmas.Format(opt))
	}
	// And it runs, producing an empty document.
	cat, db := workload.PaperCatalog()
	prog, err := engine.Compile(opt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prog.Run().Materialize().Children); n != 0 {
		t.Fatalf("empty plan produced %d children", n)
	}
	if shipped := db.Stats().TuplesShipped; shipped != 0 {
		t.Fatalf("empty plan shipped %d tuples", shipped)
	}
}

// TestAblationOptions: disabling rule groups must keep plans valid and
// semantics unchanged (they just stay less optimized).
func TestAblationOptions(t *testing.T) {
	naive := naiveFig13(t)
	for _, opts := range []rewrite.Options{
		{NoUnfold: true, NoPushdown: true, NoDeadElim: true, NoSemijoinPush: true},
		{NoPushdown: true},
		{NoDeadElim: true},
		{NoSemijoinPush: true},
	} {
		opt, _, err := rewrite.Optimize(naive, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		cat, _ := workload.PaperCatalog()
		prog, err := engine.Compile(opt, cat)
		if err != nil {
			t.Fatalf("%+v: compile: %v", opts, err)
		}
		res := prog.Run()
		m := res.Materialize()
		if err := res.Err(); err != nil {
			t.Fatalf("%+v: run: %v", opts, err)
		}
		if len(m.Children) != 1 {
			t.Errorf("%+v: result has %d children, want 1", opts, len(m.Children))
		}
	}
}

// TestRewriteIsIdempotent: optimizing an already-optimized plan changes
// nothing.
func TestRewriteIsIdempotent(t *testing.T) {
	opt1, _, err := rewrite.Optimize(naiveFig13(t), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt2, trace, err := rewrite.Optimize(opt1, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 0 {
		t.Fatalf("re-optimization fired %d rules: %v", len(trace), ruleNames(trace))
	}
	if !xmas.Equal(opt1, opt2) {
		t.Fatal("re-optimization changed the plan")
	}
}

// TestRewriteDoesNotMutateInput guards the functional contract of every
// planning stage: decontextualization, the rewriter and SQL generation build
// new nodes and share the rest, so each must leave the plans it was handed
// exactly as they were.
func TestRewriteDoesNotMutateInput(t *testing.T) {
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	origin := &compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}
	viewBefore := xmas.Format(view.Plan)
	composed, err := compose.Decontextualize(origin, qdom.Context{FromRoot: true}, xquery.MustParse(workload.Fig12), "rootv", "res")
	if err != nil {
		t.Fatal(err)
	}
	if after := xmas.Format(view.Plan); after != viewBefore {
		t.Fatal("Decontextualize mutated the view plan")
	}

	naive := naiveFig13(t)
	for name, plan := range map[string]xmas.Op{"naive": naive, "decontextualized": composed.Plan} {
		before := xmas.Format(plan)
		opt, _, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if after := xmas.Format(plan); after != before {
			t.Fatalf("Optimize mutated its %s input plan", name)
		}
		cat, _ := workload.PaperCatalog()
		optBefore := xmas.Format(opt)
		if _, err := sqlgen.Push(opt, cat); err != nil {
			t.Fatal(err)
		}
		if after := xmas.Format(opt); after != optBefore {
			t.Fatalf("sqlgen.Push mutated the rewritten %s plan", name)
		}
	}
}

// TestFigure13TraceSequence pins the exact rule firing sequence of the
// composition walk-through — a regression net over the (deterministic)
// rewriter. Update deliberately if the rule set changes.
func TestFigure13TraceSequence(t *testing.T) {
	_, trace, err := rewrite.Optimize(naiveFig13(t), rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(ruleNames(trace), " ")
	want := strings.Join([]string{
		"view-unfold(11)",
		"elt-self(2)",
		"elt-unfold(1)",
		"getD-pushdown(6)",
		"select-pushdown",
		"cat-unfold(7)",
		"getD-pushdown(6)",
		"select-pushdown",
		"apply-unfold(9)",
		"getD-pushdown(6)",
		"select-pushdown",
		"elt-self(2)",
		"elt-unfold(1)",
		"select-pushdown",
		"getD-pushdown(6)",
		"select-pushdown",
		"dead-elim",
		"semijoin-below-gBy(12)",
	}, " ")
	if got != want {
		t.Fatalf("rule sequence changed:\n got: %s\nwant: %s", got, want)
	}
}
