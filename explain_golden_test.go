package mix_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mix"
	"mix/internal/workload"
)

var updateExplain = flag.Bool("update-explain", false,
	"rewrite testdata/explain.golden from this run's explain output")

// explainGolden freezes everything a mediator reports about a plan without
// running it, and the work counts of running it: the optimized and
// executable plans, the costed plan and the whole-plan estimate, the rewrite
// trace, and the per-operator metrics after draining the answer.
const explainGolden = "testdata/explain.golden"

// TestExplainSurfacesFrozen renders every reader of one Plan, then runs it
// with metrics, for Fig12 over rootv and for QSupply over the supply
// federation, each from a fresh mediator at the default configuration, and
// compares the text with testdata/explain.golden byte for byte. The golden
// was recorded from the per-surface explain methods the Plan readers
// replaced, so it is not to be regenerated for a refactor.
func TestExplainSurfacesFrozen(t *testing.T) {
	subjects := []struct {
		name  string
		med   func() *mix.Mediator
		query string
	}{
		{"Fig12 over rootv", func() *mix.Mediator { return paperMediator(t, mix.Config{}) }, workload.Fig12},
		{"QSupply", func() *mix.Mediator { return supplyMediator(t, mix.Config{}) }, workload.QSupply},
	}
	var b strings.Builder
	b.WriteString("# Explain surfaces at the default configuration, one fresh mediator each.\n")
	b.WriteString("# Regenerate only when planning is meant to change: go test . -run TestExplainSurfacesFrozen -update-explain\n")
	for _, s := range subjects {
		fmt.Fprintf(&b, "\n== %s\n", s.name)
		p, err := s.med().Prepare(s.query, nil)
		if err != nil {
			t.Fatalf("%s: prepare: %v", s.name, err)
		}

		optimized, executable := p.Explain()
		fmt.Fprintf(&b, "-- optimized\n%s\n-- executable\n%s\n", optimized, executable)
		fmt.Fprintf(&b, "-- costed\n%s\n", p.ExplainCost())
		fmt.Fprintf(&b, "-- estimate\n%+v\n", p.Cost())

		steps, final, err := p.Trace()
		if err != nil {
			t.Fatalf("%s: trace: %v", s.name, err)
		}
		for _, st := range steps {
			fmt.Fprintf(&b, "-- trace %s\n%s\n", st.Rule, st.Plan)
		}
		fmt.Fprintf(&b, "-- trace final\n%s\n", final)

		doc, metrics, err := p.RunWithMetrics()
		if err != nil {
			t.Fatalf("%s: run: %v", s.name, err)
		}
		doc.Materialize()
		if err := doc.Err(); err != nil {
			t.Fatalf("%s: drain: %v", s.name, err)
		}
		fmt.Fprintf(&b, "-- metrics\n%s\n", metrics)
	}

	got := b.String()
	if *updateExplain {
		if err := os.WriteFile(explainGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(explainGolden)
	if err != nil {
		t.Fatalf("frozen explain output: %v (create with -update-explain)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("explain output changed at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("explain output changed: %d lines, want %d", len(gl), len(wl))
	}
}
