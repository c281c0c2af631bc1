package xmas_test

import (
	"math/rand"
	"reflect"
	"testing"

	"mix/internal/compose"
	"mix/internal/rewrite"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xquery"
)

// allVarsBySchema is AllVars as first written: the defined and used
// variables of every operator plus every operator's schema. The schema
// union is what made it quadratic in plan size.
func allVarsBySchema(op xmas.Op) map[xmas.Var]bool {
	out := map[xmas.Var]bool{}
	xmas.Walk(op, func(x xmas.Op) bool {
		for _, v := range xmas.AppendDefinedVars(nil, x) {
			out[v] = true
		}
		for _, v := range xmas.AppendUsedVars(nil, x) {
			out[v] = true
		}
		for _, v := range x.Schema() {
			out[v] = true
		}
		return true
	})
	return out
}

// TestAllVarsNeedsNoSchemas: AllVars without the schema union finds the same
// variables on the 150-plan generator corpus (corrupted plans included) and
// on the naive compositions of the random view queries and their rewrites.
func TestAllVarsNeedsNoSchemas(t *testing.T) {
	check := func(what string, plan xmas.Op) {
		t.Helper()
		if got, want := xmas.AllVars(plan), allVarsBySchema(plan); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AllVars = %v, the schema-union definition gives %v\n%s", what, got, want, xmas.Format(plan))
		}
	}
	rng := rand.New(rand.NewSource(20020208))
	for trial := 0; trial < 150; trial++ {
		check("generator plan", workload.RandomPlan(rng))
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
		check(src, naive.Plan)
		opt, _, err := rewrite.Optimize(naive.Plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("optimize of\n%s\n%v", src, err)
		}
		check(src+" (optimized)", opt)
	}
}
