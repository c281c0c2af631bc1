package compose

import (
	"fmt"

	"mix/internal/translate"
	"mix/internal/xmas"
	"mix/internal/xquery"
)

// NaiveCompose builds the trivial composition of paper Section 6 / Figure
// 13: "for every source operator in p2 that refers to the root of q1, the
// mediator sets the input of the source operator as the plan p1". The
// resulting plan is executable (the engine evaluates the view at the
// mediator) but carries the inefficiencies the rewriter removes — it is both
// the input of the Figure 13→21 rewrite trace and the baseline of
// experiment E11.
func NaiveCompose(origin *OriginPlan, q *xquery.Query, rootName, resultRootID string) (*Result, error) {
	if origin == nil || origin.Plan == nil {
		return nil, fmt.Errorf("compose: no view plan")
	}
	if _, ok := origin.Plan.(*xmas.TD); !ok {
		return nil, fmt.Errorf("compose: view plan must be rooted at tD")
	}
	tq, err := translate.Translate(q, resultRootID)
	if err != nil {
		return nil, fmt.Errorf("compose: translating query: %w", err)
	}

	taken := xmas.AllVars(tq.Plan)
	renaming := xmas.FreshVars(origin.Plan, taken, nil)
	view := xmas.Rename(origin.Plan, renaming)

	attached := 0
	composed := attachView(tq.Plan, rootName, view, &attached)
	if attached == 0 {
		return nil, fmt.Errorf("compose: query does not reference document(%s)", rootName)
	}
	if err := checkPlan(composed); err != nil {
		return nil, fmt.Errorf("compose: naive composition invalid: %w", err)
	}

	tags := map[xmas.Var]string{}
	for v, tg := range origin.Tags {
		if nv, ok := renaming[v]; ok {
			tags[nv] = tg
		} else {
			tags[v] = tg
		}
	}
	for v, tg := range tq.Tags {
		tags[v] = tg
	}
	return &Result{Plan: composed, Tags: tags}, nil
}

// OriginPlan mirrors qdom.Origin without importing it (NaiveCompose is also
// used by benchmarks that never build a QDOM document).
type OriginPlan struct {
	Plan xmas.Op
	Tags map[xmas.Var]string
}

func attachView(op xmas.Op, rootName string, view xmas.Op, attached *int) xmas.Op {
	if src, ok := op.(*xmas.MkSrc); ok && src.In == nil && matchesRoot(src.SrcID, rootName) {
		*attached++
		c := *src
		if *attached == 1 {
			c.In = view
		} else {
			c.In = xmas.Clone(view) // one plan holds no node twice
		}
		return &c
	}
	return xmas.MapInputs(op, func(in xmas.Op) xmas.Op { return attachView(in, rootName, view, attached) })
}
