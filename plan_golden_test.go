package mix

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mix/internal/compose"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/shard"
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
)

var updatePlans = flag.Bool("update-plans", false,
	"rewrite testdata/plans.golden from this run's planner output")

// plansGolden freezes what the planner produces, not just what the plans
// answer: for each plan, the rules the rewriter fires, the rewritten plan and
// the plan after SQL generation, all as text. Planning must stay
// byte-identical when only its cost changes.
const plansGolden = "testdata/plans.golden"

// TestPlannerOutputFrozen plans the 150 plans of the generator corpus (seed
// 20020208, as the rewrite package's equivalence tests use) over the paper
// catalog, and the shapes the benchmark plans: the rootv view, Fig12 composed
// with it, the browse in-place query from the fifth CustRec, QSupply over the
// supply federation, and the fleet's scan and point query over a sharded
// source. Root ids are fixed, so the text does not depend on how many queries
// a mediator has planned before.
func TestPlannerOutputFrozen(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Planner output: rules fired, rewritten plan, pushed plan.\n")
	b.WriteString("# Regenerate only when planning is meant to change: go test . -run TestPlannerOutputFrozen -update-plans\n")

	cat, _ := workload.PaperCatalog()
	rng := rand.New(rand.NewSource(20020208))
	for trial := 0; trial < 150; trial++ {
		plan := workload.RandomPlan(rng)
		fmt.Fprintf(&b, "\n== corpus %d\n", trial)
		if err := xmas.Verify(plan); err != nil {
			b.WriteString("invalid\n")
			continue
		}
		opt, trace, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("corpus %d: optimize: %v", trial, err)
		}
		pushed, err := sqlgen.Push(opt, cat)
		if err != nil {
			t.Fatalf("corpus %d: push: %v", trial, err)
		}
		writePlanned(&b, ruleNames(trace), opt, pushed)
	}

	for _, s := range benchmarkShapes(t) {
		fmt.Fprintf(&b, "\n== %s\n", s.name)
		opts := s.m.cfg.RewriteOptions
		opts.ChildLabels = s.m.childLabels
		_, trace, err := rewrite.Optimize(s.plan, opts)
		if err != nil {
			t.Fatalf("%s: optimize: %v", s.name, err)
		}
		var p Plan
		if err := s.m.optimize(&p, s.plan); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		writePlanned(&b, ruleNames(trace), p.ComposePlan, p.ExecPlan)
	}

	got := b.String()
	if *updatePlans {
		if err := os.WriteFile(plansGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatalf("frozen plans: %v (create with -update-plans)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("planner output changed at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("planner output changed: %d lines, want %d", len(gl), len(wl))
	}
}

func writePlanned(b *strings.Builder, rules []string, rewritten, pushed xmas.Op) {
	fmt.Fprintf(b, "rules: %s\n-- rewritten\n%s\n-- pushed\n%s\n", strings.Join(rules, " "), xmas.Format(rewritten), xmas.Format(pushed))
}

func ruleNames(trace []rewrite.Step) []string {
	out := make([]string, len(trace))
	for i, s := range trace {
		out[i] = s.Rule
	}
	return out
}

// plannedShape is one plan a benchmark workload hands the planner, with the
// mediator that plans it.
type plannedShape struct {
	name string
	m    *Mediator
	plan xmas.Op
}

func benchmarkShapes(t *testing.T) []plannedShape {
	t.Helper()
	view := New()
	view.AddRelationalSource(workload.ScaleDB("db1", 50, 5, 1))
	for alias, target := range map[string]string{"&root1": "&db1.customer", "&root2": "&db1.orders"} {
		if err := view.AliasSource(alias, target); err != nil {
			t.Fatal(err)
		}
	}
	rootv, err := view.DefineView("rootv", workload.Q1)
	if err != nil {
		t.Fatal(err)
	}
	var shapes []plannedShape
	translated := func(name string, m *Mediator, query string) {
		tr, err := translate.Translate(xquery.MustParse(query), "result")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shapes = append(shapes, plannedShape{name, m, tr.Plan})
	}
	translated("view rootv", view, workload.Q1)

	fig12, err := compose.Decontextualize(rootv.originPlan(), qdom.Context{FromRoot: true}, xquery.MustParse(workload.Fig12), "rootv", "result")
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, plannedShape{"Fig12 over rootv", view, fig12.Plan})

	doc, err := view.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	rec := doc.Root().Child(4)
	if rec == nil {
		t.Fatalf("rootv has no fifth CustRec: %v", doc.Err())
	}
	ctx, ok := rec.Context()
	if !ok {
		t.Fatal("a CustRec cannot be decontextualized")
	}
	inplace, err := compose.Decontextualize(rootv.originPlan(), ctx, xquery.MustParse(`FOR $O IN document(root)/OrderInfo WHERE $O/orders/value < 50000 RETURN $O`), "root", "result")
	if err != nil {
		t.Fatal(err)
	}
	shapes = append(shapes, plannedShape{"browse in-place from CustRec 5", view, inplace.Plan})

	supply := New()
	db1, db2 := workload.SupplyDBs(100, 10, 3, 1)
	supply.AddRelationalSource(db1)
	supply.AddRelationalSource(db2)
	translated("QSupply", supply, workload.QSupply)

	fleet := NewWith(Config{Parallelism: 4, Prefetch: true})
	spec := shard.Spec{Mode: shard.ModeHash, N: 3, KeyPath: []string{"customer", "id"}}
	var members []shard.Member
	for i := 0; i < spec.N; i++ {
		cat := source.NewCatalog()
		id := fmt.Sprintf("&m%d", i)
		cat.AddXMLDoc(id, workload.PaperXMLDoc("customer"))
		d, err := cat.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, shard.Member{ID: fmt.Sprintf("shard%d", i), Doc: d})
	}
	if _, err := fleet.AddShardedSource("&fleet", spec, members, shard.Config{}); err != nil {
		t.Fatal(err)
	}
	translated("fleet scan", fleet, `FOR $C IN document(&fleet)/customer RETURN $C`)
	translated("fleet point query", fleet, `FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C000042" RETURN $C`)
	return shapes
}
