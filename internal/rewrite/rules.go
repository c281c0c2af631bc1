package rewrite

import (
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// ---- empty propagation ----

// ruleEmptyProp collapses operators over provably empty inputs (the ∅ plans
// rule 4 produces).
func ruleEmptyProp(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	ins, n := xmas.InputsOf(op)
	if n == 0 {
		return nil, nil, false
	}
	if _, isTD := op.(*xmas.TD); isTD {
		return nil, nil, false // an empty result document is still a document
	}
	if m, isMk := op.(*xmas.MkSrc); isMk && m.In != nil {
		return nil, nil, false
	}
	anyEmpty := false
	for _, in := range ins[:n] {
		if _, ok := in.(*xmas.Empty); ok {
			anyEmpty = true
			break
		}
	}
	if !anyEmpty {
		return nil, nil, false
	}
	return &xmas.Empty{Vars: op.Schema()}, nil, true
}

// ---- rule 11: view unfolding (tD + mkSrc elimination) ----

// ruleViewUnfold matches getD($A:p → $X) over mkSrc(viewid, $A) whose input
// is the view plan tD($1, viewid) over P, and replaces the pair by
// getD($1:p → $X) over P, renaming $A to $1 plan-wide.
func ruleViewUnfold(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok {
		return nil, nil, false
	}
	m, ok := g.In.(*xmas.MkSrc)
	if !ok || m.In == nil || g.From != m.Out {
		return nil, nil, false
	}
	td, ok := m.In.(*xmas.TD)
	if !ok {
		return nil, nil, false
	}
	out := &xmas.GetD{In: td.In, From: td.V, Path: g.Path, Out: g.Out}
	return out, map[xmas.Var]xmas.Var{m.Out: td.V}, true
}

// ---- rules 1-5: getD against crElt ----

// ruleEltSelf matches getD($Z:[r] → $X) over crElt(r, ..., → $Z): the path
// is exactly the constructed label, so $X is $Z (Table 2 rule 2).
func ruleEltSelf(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok || len(g.Path) != 1 {
		return nil, nil, false
	}
	c, ok := g.In.(*xmas.CrElt)
	if !ok || g.From != c.Out || !xmas.StepMatches(g.Path[0], c.Label) {
		return nil, nil, false
	}
	return c, map[xmas.Var]xmas.Var{g.Out: c.Out}, true
}

// ruleEltUnsat matches getD($Z:p → $X) over crElt(r, ...) where first(p)
// cannot be r: the path condition is unsatisfiable (Table 2 rule 4).
func ruleEltUnsat(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok || len(g.Path) == 0 {
		return nil, nil, false
	}
	c, ok := g.In.(*xmas.CrElt)
	if !ok || g.From != c.Out {
		return nil, nil, false
	}
	if xmas.StepMatches(g.Path[0], c.Label) {
		return nil, nil, false
	}
	return &xmas.Empty{Vars: g.Schema()}, nil, true
}

// ruleEltUnfold matches getD($Z:r.q → $X) over crElt(r, f(~g), ch → $Z)
// with q non-empty, and moves the navigation into the constructed children
// (Table 2 rules 1 and 3): the nodes reachable by r.q from $Z are exactly
// those reachable by list.q from a list child variable, or by q from a
// singleton (list($w)) child.
func ruleEltUnfold(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok || len(g.Path) < 2 {
		return nil, nil, false
	}
	c, ok := g.In.(*xmas.CrElt)
	if !ok || g.From != c.Out || !xmas.StepMatches(g.Path[0], c.Label) {
		return nil, nil, false
	}
	q := g.Path.Rest()
	var newPath xmas.Path
	if c.Children.Wrap {
		newPath = q
	} else {
		newPath = q.Prepend("list")
	}
	inner := &xmas.GetD{In: c.In, From: c.Children.V, Path: newPath, Out: g.Out}
	out := c.WithInputs(inner)
	return out, nil, true
}

// ---- rules 7-8: getD against cat ----

// ruleCatUnfold matches getD($V:list.s.q → $X) over cat(x, y → $V) and
// redirects the navigation to the side whose element labels can match s.
// When both sides could match the rule stays silent (XMAS has no union
// operator; see DESIGN.md); when neither can, the path is unsatisfiable.
func ruleCatUnfold(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok || len(g.Path) < 2 || g.Path[0] != "list" {
		return nil, nil, false
	}
	c, ok := g.In.(*xmas.Cat)
	if !ok || g.From != c.Out {
		return nil, nil, false
	}
	s := g.Path[1]
	xl, xknown := labelsOfSpec(c.In, c.X)
	yl, yknown := labelsOfSpec(c.In, c.Y)
	xCan := labelCanMatch(s, xl, xknown)
	yCan := labelCanMatch(s, yl, yknown)
	switch {
	case xCan && yCan:
		return nil, nil, false
	case !xCan && !yCan:
		return &xmas.Empty{Vars: g.Schema()}, nil, true
	}
	side := c.X
	if yCan {
		side = c.Y
	}
	var newPath xmas.Path
	if side.Wrap {
		newPath = g.Path.Rest() // start at the singleton element itself
	} else {
		newPath = g.Path // the side is itself a list: keep the list step
	}
	inner := &xmas.GetD{In: c.In, From: side.V, Path: newPath, Out: g.Out}
	return c.WithInputs(inner), nil, true
}

// ---- rule 9: unnesting through apply/groupBy ----

// ruleApplyUnfold matches getD($Z:list.q → $N) over apply(p1, $X → $Z) over
// gBy(G → $X) over P1, where p1 = tD($1) over p2. It introduces a join on
// the group-by variables between (a) a fresh copy of P1 with the nested plan
// body inlined and the navigation continued from the collect variable, and
// (b) the original apply chain — Table 2 rule 9. The copy's variables are
// renamed ("p3(V↦V')") so selections on the navigated branch can later be
// pushed to the sources without losing bindings.
func ruleApplyUnfold(st *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok || len(g.Path) < 2 || g.Path[0] != "list" {
		return nil, nil, false
	}
	a, ok := g.In.(*xmas.Apply)
	if !ok || g.From != a.Out {
		return nil, nil, false
	}
	gb, ok := a.In.(*xmas.GroupBy)
	if !ok || a.InpVar != gb.Out {
		return nil, nil, false
	}
	td, ok := a.Plan.(*xmas.TD)
	if !ok {
		return nil, nil, false
	}
	p1 := gb.In

	// Build the primed copy: P1' with the nested body inlined over it.
	// Priming renames every variable the copy binds, which rebuilds each of
	// its nodes that binds or reads one: the copy shares no such node with p1.
	inlined, ok := replaceNestedSrc(td.In, a.InpVar, p1)
	if !ok {
		return nil, nil, false
	}
	prime := xmas.FreshVars(inlined, st.takenVars(), nil)
	inlined = xmas.Rename(inlined, prime)
	primed := func(v xmas.Var) xmas.Var {
		if nv, ok := prime[v]; ok {
			return nv
		}
		return v
	}

	// Continue the navigation from the collect variable. When it binds
	// single elements (crElt/getD outputs) the collected list's items ARE
	// those elements, so the "list" step is consumed; when it binds lists
	// itself (an inner apply's output — a flattened nested query), the
	// virtual list node remains and the step must stay.
	contPath := g.Path.Rest()
	if def := findDef(inlined, primed(td.V)); def != nil {
		if _, isApply := def.(*xmas.Apply); isApply {
			contPath = g.Path
		}
	}
	left := xmas.Op(&xmas.GetD{
		In:   inlined,
		From: primed(td.V),
		Path: contPath,
		Out:  g.Out,
	})

	// Join the copy back on the group-by variables.
	keys := gb.Keys
	cond := xmas.NewVarVarCond(primed(keys[0]), xtree.OpEQ, keys[0])
	out := xmas.Op(&xmas.Join{L: left, R: a, Cond: &cond})
	for _, k := range keys[1:] {
		c := xmas.NewVarVarCond(primed(k), xtree.OpEQ, k)
		out = &xmas.Select{In: out, Cond: c}
	}
	return out, nil, true
}

// replaceNestedSrc substitutes the nestedSrc($v) leaf with a plan.
func replaceNestedSrc(op xmas.Op, v xmas.Var, repl xmas.Op) (xmas.Op, bool) {
	if ns, ok := op.(*xmas.NestedSrc); ok && ns.V == v {
		return repl, true
	}
	ins, n := xmas.InputsOf(op)
	for i, in := range ins[:n] {
		if sub, ok := replaceNestedSrc(in, v, repl); ok {
			return xmas.WithInput(op, i, sub), true
		}
	}
	return op, false
}

// ---- schema-aware unsatisfiability ----

// makeSchemaUnsat builds the rule enabled by Options.ChildLabels: a getD
// whose start variable provably ranges over elements with a declared,
// exhaustive child-label set, and whose second path step names none of
// those children, can never match — the plan is empty. (The first step is
// the start node's own label; deeper steps are not checked because column
// values are not enumerable.)
func makeSchemaUnsat(hints map[string][]string) func(*state, xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	return func(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
		g, ok := op.(*xmas.GetD)
		if !ok || len(g.Path) < 2 || g.Path[1] == xmas.Wildcard {
			return nil, nil, false
		}
		// List-valued variables navigate through a virtual "list" node;
		// the label analysis describes the list's elements, so the rule
		// cannot apply (cat-unfold handles those paths).
		if g.Path[0] == "list" {
			return nil, nil, false
		}
		labels, known := labelsOfVar(g.In, g.From)
		if !known {
			return nil, nil, false
		}
		next := g.Path[1]
		matched := false
		for _, l := range labels {
			if !xmas.StepMatches(g.Path[0], l) {
				continue
			}
			matched = true
			children, declared := hints[l]
			if !declared {
				return nil, nil, false // not exhaustive: stay conservative
			}
			for _, c := range children {
				if c == next {
					return nil, nil, false // satisfiable
				}
			}
		}
		if !matched {
			// No label can even match the first step; elt rules handle the
			// crElt case, but source-typed variables land here.
			return &xmas.Empty{Vars: g.Schema()}, nil, true
		}
		return &xmas.Empty{Vars: g.Schema()}, nil, true
	}
}

// ---- pushdown rules ----

// ruleGetDPushdown commutes a getD below any operator that neither defines
// its start variable nor regroups tuples (Table 2 rows 5-6 generalized):
// crElt, cat, apply, select, orderBy, and — into the proper branch — join
// and semi-join.
func ruleGetDPushdown(st *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	g, ok := op.(*xmas.GetD)
	if !ok {
		return nil, nil, false
	}
	switch u := g.In.(type) {
	case *xmas.CrElt:
		if g.From == u.Out {
			return nil, nil, false
		}
		return u.WithInputs(&xmas.GetD{In: u.In, From: g.From, Path: g.Path, Out: g.Out}), nil, true
	case *xmas.Cat:
		if g.From == u.Out {
			return nil, nil, false
		}
		return u.WithInputs(&xmas.GetD{In: u.In, From: g.From, Path: g.Path, Out: g.Out}), nil, true
	case *xmas.Apply:
		if g.From == u.Out {
			return nil, nil, false
		}
		return u.WithInputs(&xmas.GetD{In: u.In, From: g.From, Path: g.Path, Out: g.Out}), nil, true
	// Select is intentionally absent: the select-pushdown rule moves
	// selections below getD, so also moving getD below selections would
	// ping-pong forever.
	case *xmas.OrderBy:
		return u.WithInputs(&xmas.GetD{In: u.In, From: g.From, Path: g.Path, Out: g.Out}), nil, true
	case *xmas.Join:
		if xmas.HasVar(st.schema(u.L), g.From) {
			return u.WithInputs(&xmas.GetD{In: u.L, From: g.From, Path: g.Path, Out: g.Out}, u.R), nil, true
		}
		if xmas.HasVar(st.schema(u.R), g.From) {
			return u.WithInputs(u.L, &xmas.GetD{In: u.R, From: g.From, Path: g.Path, Out: g.Out}), nil, true
		}
	case *xmas.SemiJoin:
		keep := u.L
		if u.Keep == xmas.KeepRight {
			keep = u.R
		}
		if !xmas.HasVar(st.schema(keep), g.From) {
			return nil, nil, false
		}
		inner := &xmas.GetD{In: keep, From: g.From, Path: g.Path, Out: g.Out}
		if u.Keep == xmas.KeepRight {
			return u.WithInputs(u.L, inner), nil, true
		}
		return u.WithInputs(inner, u.R), nil, true
	}
	return nil, nil, false
}

// ruleSelectPushdown pushes a selection below any operator that does not
// define its variables, through group-by when it only touches group keys,
// and into the matching branch of joins and semi-joins — "pushing selections
// down" (paper Section 1).
func ruleSelectPushdown(st *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	s, ok := op.(*xmas.Select)
	if !ok {
		return nil, nil, false
	}
	var buf [2]xmas.Var
	vars := s.Cond.AppendVars(buf[:0])
	allIn := func(schema []xmas.Var) bool {
		for _, v := range vars {
			if !xmas.HasVar(schema, v) {
				return false
			}
		}
		return true
	}
	switch u := s.In.(type) {
	case *xmas.GetD:
		if !refsAny(vars, u.Out) {
			return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
		}
	case *xmas.CrElt:
		if !refsAny(vars, u.Out) {
			return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
		}
	case *xmas.Cat:
		if !refsAny(vars, u.Out) {
			return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
		}
	case *xmas.Apply:
		if !refsAny(vars, u.Out) {
			return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
		}
	case *xmas.OrderBy:
		return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
	case *xmas.GroupBy:
		keysOnly := true
		for _, v := range vars {
			if !xmas.HasVar(u.Keys, v) {
				keysOnly = false
				break
			}
		}
		if keysOnly {
			return u.WithInputs(&xmas.Select{In: u.In, Cond: s.Cond}), nil, true
		}
	case *xmas.Join:
		if allIn(st.schema(u.L)) {
			return u.WithInputs(&xmas.Select{In: u.L, Cond: s.Cond}, u.R), nil, true
		}
		if allIn(st.schema(u.R)) {
			return u.WithInputs(u.L, &xmas.Select{In: u.R, Cond: s.Cond}), nil, true
		}
	case *xmas.SemiJoin:
		keep := u.L
		if u.Keep == xmas.KeepRight {
			keep = u.R
		}
		if allIn(st.schema(keep)) {
			inner := &xmas.Select{In: keep, Cond: s.Cond}
			if u.Keep == xmas.KeepRight {
				return u.WithInputs(u.L, inner), nil, true
			}
			return u.WithInputs(inner, u.R), nil, true
		}
	}
	return nil, nil, false
}

func refsAny(vars []xmas.Var, v xmas.Var) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// ---- rule 12: semijoin below grouping ----

// ruleSemijoinPush pushes a semi-join whose condition only touches group-by
// keys below the apply/gBy pair on its kept side (Table 2 rule 12), so it
// can reach — and be shipped to — the sources instead of being evaluated at
// the mediator.
func ruleSemijoinPush(st *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
	sj, ok := op.(*xmas.SemiJoin)
	if !ok || sj.Cond == nil {
		return nil, nil, false
	}
	keep := sj.R
	if sj.Keep == xmas.KeepLeft {
		keep = sj.L
	}
	// Identify the condition variable living on the kept side.
	var keepVar xmas.Var
	ks := st.schema(keep)
	if !sj.Cond.Left.IsConst && xmas.HasVar(ks, sj.Cond.Left.V) {
		keepVar = sj.Cond.Left.V
	} else if !sj.Cond.Right.IsConst && xmas.HasVar(ks, sj.Cond.Right.V) {
		keepVar = sj.Cond.Right.V
	} else {
		return nil, nil, false
	}
	rebuilt, ok := pushSemiJoinThrough(st, sj, keep, keepVar)
	if !ok {
		return nil, nil, false
	}
	return rebuilt, nil, true
}

// pushSemiJoinThrough descends through operators on the kept side that pass
// keepVar through unchanged — grouping (rule 12 proper) but also per-tuple
// constructors and filters, so the semi-join ends up adjacent to the source
// subplan where sqlgen can ship it (Figure 22's single self-join query).
// It reports success only when at least one operator was crossed.
func pushSemiJoinThrough(st *state, sj *xmas.SemiJoin, keep xmas.Op, keepVar xmas.Var) (xmas.Op, bool) {
	reroot := func(below xmas.Op) xmas.Op {
		if sj.Keep == xmas.KeepRight {
			return &xmas.SemiJoin{L: sj.L, R: below, Cond: sj.Cond, Keep: sj.Keep}
		}
		return &xmas.SemiJoin{L: below, R: sj.R, Cond: sj.Cond, Keep: sj.Keep}
	}
	switch u := keep.(type) {
	// Select is intentionally absent: select-pushdown moves selections
	// below semi-joins, so also moving semi-joins below selections would
	// ping-pong forever.
	case *xmas.Apply, *xmas.CrElt, *xmas.Cat, *xmas.OrderBy:
		in, _ := xmas.InputsOf(keep)
		// The crossed operator must not define the semi-join's probe
		// variable (it cannot: defined vars are fresh outputs), and the
		// variable must come from below.
		if !xmas.HasVar(st.schema(in[0]), keepVar) {
			return nil, false
		}
		if inner, ok := pushSemiJoinThrough(st, sj, in[0], keepVar); ok {
			return keep.WithInputs(inner), true
		}
		return keep.WithInputs(reroot(in[0])), true
	case *xmas.GroupBy:
		if !xmas.HasVar(u.Keys, keepVar) {
			return nil, false
		}
		if inner, ok := pushSemiJoinThrough(st, sj, u.In, keepVar); ok {
			return u.WithInputs(inner), true
		}
		return u.WithInputs(reroot(u.In)), true
	}
	return nil, false
}
