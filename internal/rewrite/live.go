package rewrite

import "mix/internal/xmas"

// eliminateDead performs the live-variable analysis of paper Section 6:
// "all operators which create bindings which are not used by the query can
// simply be removed", and a join whose one side is only tested for existence
// "can be converted into a semi-join" (Figures 19→20). It returns the
// rebuilt plan and whether anything changed.
func eliminateDead(root xmas.Op, schemas xmas.Schemas) (xmas.Op, bool) {
	td, ok := root.(*xmas.TD)
	if !ok {
		return root, false
	}
	e := &eliminator{schemas: schemas}
	in, changed := e.elim(td.In, e.addVars(nil, td.V))
	if !changed {
		return root, false
	}
	return td.WithInputs(in), true
}

// eliminator runs the analysis with the rewrite's schema memo. A live set
// is a short list of distinct variables. Every set is new and never changes
// once built, and all of them are cut from one arena, so a pass allocates a
// few chunks instead of a set per operator.
type eliminator struct {
	schemas xmas.Schemas
	arena   []xmas.Var
}

// set returns an empty set with room for n variables.
func (e *eliminator) set(n int) []xmas.Var {
	if cap(e.arena)-len(e.arena) < n {
		e.arena = make([]xmas.Var, 0, max(256, n))
	}
	at := len(e.arena)
	e.arena = e.arena[:at+n]
	return e.arena[at : at : at+n]
}

func (e *eliminator) addVars(live []xmas.Var, vars ...xmas.Var) []xmas.Var {
	out := append(e.set(len(live)+len(vars)), live...)
	for _, v := range vars {
		if !xmas.HasVar(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func (e *eliminator) without(live []xmas.Var, v xmas.Var) []xmas.Var {
	out := e.set(len(live))
	for _, k := range live {
		if k != v {
			out = append(out, k)
		}
	}
	return out
}

// restrict returns the variables of live that schema holds.
func (e *eliminator) restrict(live, schema []xmas.Var) []xmas.Var {
	out := e.set(len(live))
	for _, v := range live {
		if xmas.HasVar(schema, v) && !xmas.HasVar(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// elim rebuilds op under the live set, dropping constructors whose outputs
// are dead and converting existence-only joins to semi-joins.
func (e *eliminator) elim(op xmas.Op, live []xmas.Var) (xmas.Op, bool) {
	switch o := op.(type) {
	case *xmas.CrElt:
		if !xmas.HasVar(live, o.Out) {
			in, _ := e.elim(o.In, live)
			return in, true
		}
		in, ch := e.elim(o.In, e.addVars(e.without(live, o.Out), xmas.AppendUsedVars(e.set(len(o.GroupVars)+1), o)...))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.Cat:
		if !xmas.HasVar(live, o.Out) {
			in, _ := e.elim(o.In, live)
			return in, true
		}
		in, ch := e.elim(o.In, e.addVars(e.without(live, o.Out), o.X.V, o.Y.V))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.Apply:
		if !xmas.HasVar(live, o.Out) {
			in, _ := e.elim(o.In, live)
			return in, true
		}
		in, ch1 := e.elim(o.In, e.addVars(e.without(live, o.Out), o.InpVar))
		plan, ch2 := e.elimNested(o.Plan)
		if !ch1 && !ch2 {
			return op, false
		}
		c := *o
		c.In = in
		c.Plan = plan
		return &c, true
	case *xmas.GroupBy:
		if !xmas.HasVar(live, o.Out) {
			// Grouping whose partition is unused reduces to duplicate-
			// eliminating projection on the keys.
			in, _ := e.elim(o.In, e.addVars(nil, o.Keys...))
			return &xmas.Project{In: in, Vars: append([]xmas.Var{}, o.Keys...)}, true
		}
		// The partition carries whole input tuples; every input variable
		// stays live (nested plans may read any of them).
		in, ch := e.elim(o.In, e.addVars(nil, e.schemas.Of(o.In)...))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.GetD:
		// getD filters tuples without matches, so it stays even when its
		// output is dead.
		in, ch := e.elim(o.In, e.addVars(e.without(live, o.Out), o.From))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.Select:
		in, ch := e.elim(o.In, e.addVars(live, o.Cond.AppendVars(e.set(2))...))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.Project:
		in, ch := e.elim(o.In, e.addVars(nil, o.Vars...))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.OrderBy:
		in, ch := e.elim(o.In, e.addVars(live, o.Vars...))
		if !ch {
			return op, false
		}
		return o.WithInputs(in), true
	case *xmas.Join:
		var condVars []xmas.Var
		if o.Cond != nil {
			condVars = o.Cond.AppendVars(e.set(2))
		}
		lSchema, rSchema := e.schemas.Of(o.L), e.schemas.Of(o.R)
		lLive := e.restrict(live, lSchema)
		rLive := e.restrict(live, rSchema)
		// Existence-only sides become semi-joins.
		if o.Cond != nil {
			if len(lLive) == 0 {
				l, _ := e.elim(o.L, e.restrict(condVars, lSchema))
				r, _ := e.elim(o.R, e.addVars(rLive, e.restrict(condVars, rSchema)...))
				return &xmas.SemiJoin{L: l, R: r, Cond: o.Cond, Keep: xmas.KeepRight}, true
			}
			if len(rLive) == 0 {
				l, _ := e.elim(o.L, e.addVars(lLive, e.restrict(condVars, lSchema)...))
				r, _ := e.elim(o.R, e.restrict(condVars, rSchema))
				return &xmas.SemiJoin{L: l, R: r, Cond: o.Cond, Keep: xmas.KeepLeft}, true
			}
		}
		l, ch1 := e.elim(o.L, e.addVars(lLive, e.restrict(condVars, lSchema)...))
		r, ch2 := e.elim(o.R, e.addVars(rLive, e.restrict(condVars, rSchema)...))
		if !ch1 && !ch2 {
			return op, false
		}
		return o.WithInputs(l, r), true
	case *xmas.SemiJoin:
		var condVars []xmas.Var
		if o.Cond != nil {
			condVars = o.Cond.AppendVars(e.set(2))
		}
		lSchema, rSchema := e.schemas.Of(o.L), e.schemas.Of(o.R)
		var lLive, rLive []xmas.Var
		if o.Keep == xmas.KeepLeft {
			lLive = e.addVars(e.restrict(live, lSchema), e.restrict(condVars, lSchema)...)
			rLive = e.restrict(condVars, rSchema)
		} else {
			lLive = e.restrict(condVars, lSchema)
			rLive = e.addVars(e.restrict(live, rSchema), e.restrict(condVars, rSchema)...)
		}
		l, ch1 := e.elim(o.L, lLive)
		r, ch2 := e.elim(o.R, rLive)
		if !ch1 && !ch2 {
			return op, false
		}
		return o.WithInputs(l, r), true
	case *xmas.MkSrc:
		if o.In == nil {
			return op, false
		}
		in, ch := e.elimNested(o.In)
		if !ch {
			return op, false
		}
		c := *o
		c.In = in
		return &c, true
	}
	return op, false
}

// elimNested runs the analysis on a tD-rooted (nested or view) plan.
func (e *eliminator) elimNested(plan xmas.Op) (xmas.Op, bool) {
	td, ok := plan.(*xmas.TD)
	if !ok {
		return plan, false
	}
	in, ch := e.elim(td.In, e.addVars(nil, td.V))
	if !ch {
		return plan, false
	}
	return td.WithInputs(in), true
}
