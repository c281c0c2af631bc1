// Package compose implements decontextualization (paper Section 5) and query
// composition (Section 6): given the plan of a view q, a node x of q's
// (virtual) result reached by navigation, and a query q' issued from x, it
// produces a standalone plan q” that computes q'(x) without relying on any
// context at the sources — sources only ever see ordinary queries.
//
// The mechanism is the paper's: the id of x encodes the variable x was bound
// to before the tD operator and the group-by fixations of x and its
// enclosing nodes; composition strips the view's tD, pins the fixed
// variables with selections, and redirects the root references of q' to the
// provenance variable (with the variable's tag prefixed to the path, since
// getD paths include the start label).
package compose

import (
	"errors"
	"fmt"

	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/translate"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// ErrNotDecontextualizable reports a node whose position cannot be conveyed
// to the sources — e.g. a node bound only inside a nested plan, or a deep
// source node with no provenance. The mediator falls back to materializing
// the subtree (the strategy the paper rejects for the general case but which
// remains correct).
var ErrNotDecontextualizable = errors.New("compose: node position cannot be decontextualized")

// Result is a composed, decontextualized plan.
type Result struct {
	// Plan is the standalone plan (rooted at tD) computing q' from x.
	Plan xmas.Op
	// Tags merges the query's and the (renamed) view's variable tags, so
	// the composed result supports further in-place queries.
	Tags map[xmas.Var]string
}

// Decontextualize composes the in-place query q (whose FOR clauses reference
// document(rootName)) with the view described by origin, relative to the
// navigation context ctx. resultRootID names the composed result document.
func Decontextualize(origin *OriginPlan, ctx qdom.Context, q *xquery.Query, rootName, resultRootID string) (*Result, error) {
	if origin == nil || origin.Plan == nil {
		return nil, fmt.Errorf("compose: document has no origin plan")
	}
	viewTD, ok := origin.Plan.(*xmas.TD)
	if !ok {
		return nil, fmt.Errorf("compose: view plan must be rooted at tD")
	}

	// 1. Translate q' on its own; its plan contains mkSrc(rootName, $z).
	tq, err := translate.Translate(q, resultRootID)
	if err != nil {
		return nil, fmt.Errorf("compose: translating in-place query: %w", err)
	}

	// 2. Freshen the view plan's variables against the query's. The renamed
	// plan shares every node no renaming touches with the view's own plan.
	taken := xmas.AllVars(tq.Plan)
	inner := viewTD.In
	renaming := xmas.FreshVars(inner, taken, nil)
	inner = xmas.Rename(inner, renaming)
	rename := func(v xmas.Var) xmas.Var {
		if nv, ok := renaming[v]; ok {
			return nv
		}
		return v
	}

	// 3. Locate the provenance variable in the (renamed) view plan.
	var fromVar xmas.Var
	var prefix xmas.Path
	if ctx.FromRoot {
		fromVar = rename(viewTD.V)
	} else {
		fromVar = rename(ctx.Var)
		tag, ok := origin.Tags[ctx.Var]
		if !ok {
			return nil, fmt.Errorf("%w: no tag recorded for %s", ErrNotDecontextualizable, ctx.Var)
		}
		prefix = xmas.Path{tag}
	}
	innerSchema := inner.Schema()
	if !xmas.HasVar(innerSchema, fromVar) {
		// The node was bound inside a nested (apply) plan — e.g. an
		// OrderInfo collected per group. Inline the nested body over the
		// group-by's input: the navigation fixations pin the group anyway,
		// so the apply/gBy pair is unnecessary context.
		unnested, ok := unnestFor(inner, fromVar)
		if !ok {
			return nil, fmt.Errorf("%w: %s is bound inside a nested plan that cannot be unnested", ErrNotDecontextualizable, fromVar)
		}
		inner = unnested
		innerSchema = inner.Schema()
		if !xmas.HasVar(innerSchema, fromVar) {
			return nil, fmt.Errorf("%w: %s not reachable after unnesting", ErrNotDecontextualizable, fromVar)
		}
	}

	// 4. Pin the fixed variables (paper: "appropriate selection conditions
	// are added ... to fix the values of the variables which have been
	// fixed as a result of the navigation").
	pinned := inner
	for _, f := range ctx.Fixed {
		v := rename(f.Var)
		if !xmas.HasVar(innerSchema, v) {
			continue
		}
		pinned = &xmas.Select{In: pinned, Cond: xmas.NewVarConstCond(v, xtree.OpEQ, f.ID)}
	}

	// 5. Splice: replace the unique [getD over mkSrc(rootName)] pair of the
	// query plan with a getD from the provenance variable over the pinned
	// view plan.
	composed, replaced, err := splice(tq.Plan, rootName, fromVar, prefix, pinned)
	if err != nil {
		return nil, err
	}
	if replaced == 0 {
		return nil, fmt.Errorf("compose: query does not reference document(%s)", rootName)
	}
	if replaced > 1 {
		return nil, fmt.Errorf("compose: query references document(%s) %d times; only one root binding is supported", rootName, replaced)
	}
	if err := checkPlan(composed); err != nil {
		return nil, fmt.Errorf("compose: produced invalid plan: %w", err)
	}

	tags := map[xmas.Var]string{}
	for v, tg := range origin.Tags {
		tags[rename(v)] = tg
	}
	for v, tg := range tq.Tags {
		tags[v] = tg
	}
	return &Result{Plan: composed, Tags: tags}, nil
}

// splice rebuilds op, substituting every getD-over-mkSrc(rootName) pattern.
// The mkSrc temporary ($z, bound to the children of the in-place root) stays
// alive as a real variable: the splice binds it with a child-step getD from
// the provenance variable, then continues the original path from it — other
// operators (notably skolem argument lists) may reference it.
func splice(op xmas.Op, rootName string, fromVar xmas.Var, prefix xmas.Path, pinned xmas.Op) (xmas.Op, int, error) {
	if g, ok := op.(*xmas.GetD); ok {
		if src, ok := g.In.(*xmas.MkSrc); ok && matchesRoot(src.SrcID, rootName) {
			if src.Out != g.From {
				return nil, 0, fmt.Errorf("compose: root binding shape mismatch at %s", xmas.Describe(g))
			}
			if len(g.Path) == 0 {
				return nil, 0, fmt.Errorf("compose: root binding at %s has an empty path", xmas.Describe(g))
			}
			child := &xmas.GetD{
				In:   pinned,
				From: fromVar,
				Path: prefix.Concat(xmas.Path{g.Path.First()}),
				Out:  src.Out,
			}
			return &xmas.GetD{
				In:   child,
				From: src.Out,
				Path: g.Path,
				Out:  g.Out,
			}, 1, nil
		}
	}
	if _, ok := op.(*xmas.MkSrc); ok {
		if src := op.(*xmas.MkSrc); matchesRoot(src.SrcID, rootName) {
			return nil, 0, fmt.Errorf("compose: bare mkSrc(%s) without a path is not supported", rootName)
		}
	}
	total := 0
	var err error
	out := xmas.MapInputs(op, func(in xmas.Op) xmas.Op {
		if err != nil {
			return in
		}
		sub, n, serr := splice(in, rootName, fromVar, prefix, pinned)
		if serr != nil {
			err = serr
			return in
		}
		total += n
		return sub
	})
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

func matchesRoot(srcID, rootName string) bool {
	return srcID == rootName || srcID == "&"+rootName || "&"+srcID == rootName
}

// unnestFor searches the plan for an apply whose nested body (or partition)
// binds fromVar, and returns the nested body inlined over the grouping's
// input — the composition-side counterpart of Table 2's rule 9, without the
// join-back (the in-place query's fixations already pin the group).
func unnestFor(op xmas.Op, fromVar xmas.Var) (xmas.Op, bool) {
	if a, ok := op.(*xmas.Apply); ok {
		if td, isTD := a.Plan.(*xmas.TD); isTD && xmas.HasVar(td.In.Schema(), fromVar) {
			p1, ok := partitionInput(a.In, a.InpVar)
			if !ok {
				return nil, false
			}
			inlined, ok := substNestedSrc(td.In, a.InpVar, p1)
			if !ok {
				return nil, false
			}
			return inlined, true
		}
	}
	ins, n := xmas.InputsOf(op)
	for _, in := range ins[:n] {
		if out, ok := unnestFor(in, fromVar); ok {
			return out, true
		}
	}
	if a, ok := op.(*xmas.Apply); ok {
		if out, ok := unnestFor(a.Plan, fromVar); ok {
			return out, true
		}
	}
	return nil, false
}

// partitionInput descends from an apply's input to the groupBy that binds
// the partition variable and returns that group-by's input (skipping
// sibling applies reading the same partition).
func partitionInput(op xmas.Op, part xmas.Var) (xmas.Op, bool) {
	switch o := op.(type) {
	case *xmas.GroupBy:
		if o.Out == part {
			return o.In, true
		}
	case *xmas.Apply:
		return partitionInput(o.In, part)
	}
	return nil, false
}

// substNestedSrc replaces the nestedSrc(part) leaf with a plan.
func substNestedSrc(op xmas.Op, part xmas.Var, repl xmas.Op) (xmas.Op, bool) {
	if ns, ok := op.(*xmas.NestedSrc); ok && ns.V == part {
		return repl, true
	}
	ins, n := xmas.InputsOf(op)
	for i, in := range ins[:n] {
		if sub, ok := substNestedSrc(in, part, repl); ok {
			return xmas.WithInput(op, i, sub), true
		}
	}
	return op, false
}

// MaterializeFallback evaluates q against the materialized subtree rooted at
// node — the paper's rejected-but-correct strategy, kept for nodes without
// provenance and as the E12 comparison baseline. It returns the subtree
// (already forced) for the caller to register as a temporary document.
func MaterializeFallback(node *qdom.Node) *xtree.Node {
	return node.Materialize()
}

var _ = engine.Fixation{} // engine types appear in qdom.Context
