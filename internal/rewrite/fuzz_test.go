package rewrite_test

import (
	"math/rand"
	"reflect"
	"testing"

	"mix/internal/compose"
	"mix/internal/engine"
	"mix/internal/rewrite"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// TestRandomizedEquivalence generates random (valid) queries over the Q1
// view, composes them naively, optimizes and pushes them, and requires the
// three executable forms to agree on the paper database — a randomized
// soundness check over the whole Table 2 rule set plus SQL generation.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20020707))
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	origin := &compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}

	const trials = 120
	for trial := 0; trial < trials; trial++ {
		src := workload.RandomViewQuery(rng)
		q, err := xquery.Parse(src)
		if err != nil {
			t.Fatalf("generator produced an unparsable query:\n%s\n%v", src, err)
		}
		naive, err := compose.NaiveCompose(origin, q, "rootv", "res")
		if err != nil {
			t.Fatalf("naive compose of\n%s\n%v", src, err)
		}
		opt, _, err := rewrite.Optimize(naive.Plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("optimize of\n%s\n%v", src, err)
		}

		baseline := runPlan(t, src, naive.Plan)
		optimized := runPlan(t, src, opt)
		if !xtree.EqualShape(baseline, optimized) {
			t.Fatalf("optimized diverged for\n%s\nnaive:\n%s\noptimized plan:\n%s\ngot:\n%s",
				src, baseline.Pretty(), xmas.Format(opt), optimized.Pretty())
		}

		cat, _ := workload.PaperCatalog()
		pushed, err := sqlgen.Push(opt, cat)
		if err != nil {
			t.Fatalf("push of\n%s\n%v", src, err)
		}
		pushedRes := runPlan(t, src, pushed)
		if !xtree.EqualShape(baseline, pushedRes) {
			t.Fatalf("pushed diverged for\n%s\nnaive:\n%s\npushed plan:\n%s\ngot:\n%s",
				src, baseline.Pretty(), xmas.Format(pushed), pushedRes.Pretty())
		}
	}
}

func runPlan(t *testing.T, src string, plan xmas.Op) *xtree.Node {
	t.Helper()
	cat, _ := workload.PaperCatalog()
	prog, err := engine.Compile(plan, cat)
	if err != nil {
		t.Fatalf("compile of\n%s\n%v\nplan:\n%s", src, err, xmas.Format(plan))
	}
	res := prog.Run()
	m := res.Materialize()
	if err := res.Err(); err != nil {
		t.Fatalf("run of\n%s\n%v", src, err)
	}
	return m
}

// byteSource feeds math/rand from fuzz input, one byte per draw (repeated
// across the word, so both the high bits Intn scales and the low bits it
// masks vary); exhausted input draws zero, so every byte string decodes.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(uint64(b) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// optimizeBothWays rewrites plan untraced and traced and requires the same
// outcome: the same error, or the same rules fired and the same plan, which
// Verify accepts. Only the traced steps carry renderings.
func optimizeBothWays(t *testing.T, what string, plan xmas.Op) {
	t.Helper()
	opt, steps, err := rewrite.Optimize(plan, rewrite.Options{})
	topt, tsteps, terr := rewrite.OptimizeTraced(plan, rewrite.Options{})
	if (err == nil) != (terr == nil) || err != nil && err.Error() != terr.Error() {
		t.Fatalf("%s: untraced error %v, traced %v", what, err, terr)
	}
	if err != nil {
		return
	}
	if got, want := ruleNames(tsteps), ruleNames(steps); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: traced rules %v, untraced %v", what, got, want)
	}
	if !xmas.Equal(topt, opt) {
		t.Fatalf("%s: traced plan differs\ntraced:\n%s\nuntraced:\n%s", what, xmas.Format(topt), xmas.Format(opt))
	}
	if verr := xmas.Verify(opt); verr != nil {
		t.Fatalf("%s: rewritten plan fails Verify: %v\n%s", what, verr, xmas.Format(opt))
	}
	for i := range steps {
		if steps[i].Plan != "" || tsteps[i].Plan == "" {
			t.Fatalf("%s: step %d (%s) rendered %q untraced, %q traced", what, i, steps[i].Rule, steps[i].Plan, tsteps[i].Plan)
		}
	}
	if n := len(tsteps); n > 0 && tsteps[n-1].Plan != xmas.Format(topt) {
		t.Fatalf("%s: last traced step is not the final plan", what)
	}
}

// TestTraceChangesNothing: tracing only renders. On the 150-plan
// generator corpus and the naive compositions of the random view queries,
// traced and untraced rewrites fire the same rules and return the same plan.
func TestTraceChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(20020208))
	for trial := 0; trial < 150; trial++ {
		plan := workload.RandomPlan(rng)
		if xmas.Verify(plan) != nil {
			continue
		}
		optimizeBothWays(t, "generator plan", plan)
	}
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	origin := &compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}
	rng = rand.New(rand.NewSource(20020707))
	for trial := 0; trial < 120; trial++ {
		src := workload.RandomViewQuery(rng)
		naive, err := compose.NaiveCompose(origin, xquery.MustParse(src), "rootv", "res")
		if err != nil {
			t.Fatalf("naive compose of\n%s\n%v", src, err)
		}
		optimizeBothWays(t, src, naive.Plan)
	}
}

// FuzzOptimize drives the query generator with fuzz bytes, composes the
// query naively with the Q1 view and rewrites it with Optimize and
// OptimizeTraced: no panic, the same plan both ways, and a Verify-clean
// result.
func FuzzOptimize(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{2, 1, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{1, 1, 1, 0, 2, 2, 1, 0, 1, 2, 3, 4})
	view := translate.MustTranslate(xquery.MustParse(workload.Q1), "rootv")
	origin := &compose.OriginPlan{Plan: view.Plan, Tags: view.Tags}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := workload.RandomViewQuery(rand.New(&byteSource{data: data}))
		q, err := xquery.Parse(src)
		if err != nil {
			t.Fatalf("generator produced an unparsable query:\n%s\n%v", src, err)
		}
		naive, err := compose.NaiveCompose(origin, q, "rootv", "res")
		if err != nil {
			t.Fatalf("naive compose of\n%s\n%v", src, err)
		}
		optimizeBothWays(t, src, naive.Plan)
	})
}
