package xmas

import "fmt"

// Rename returns the plan with every occurrence of the variables in m
// substituted — in schemas, conditions, parameters, and nested plans.
// Rewriting rules use it both for the rule-2 "$X ↦ $Z" equivalence
// substitutions and for freshening copied subplans (rule 9).
//
// Only the nodes that mention a renamed variable, and the paths above them,
// are rebuilt; every other subtree, and op itself when nothing changes, is
// shared with the input.
func Rename(op Op, m map[Var]Var) Op {
	if op == nil || len(m) == 0 {
		return op
	}
	return rename(op, m)
}

func rename(op Op, m map[Var]Var) Op {
	sub := func(v Var) Var {
		if nv, ok := m[v]; ok {
			return nv
		}
		return v
	}
	// subs returns vs itself when no element is renamed.
	subs := func(vs []Var) []Var {
		for i, v := range vs {
			if nv := sub(v); nv != v {
				out := append([]Var(nil), vs...)
				out[i] = nv
				for j := i + 1; j < len(out); j++ {
					out[j] = sub(out[j])
				}
				return out
			}
		}
		return vs
	}
	same := func(a, b []Var) bool { return len(a) == 0 || &a[0] == &b[0] }
	ins, n := InputsOf(op)
	changed := false
	for i := 0; i < n; i++ {
		if in := rename(ins[i], m); in != ins[i] {
			ins[i], changed = in, true
		}
	}
	switch o := op.(type) {
	case *MkSrc:
		out := sub(o.Out)
		if !changed && out == o.Out {
			return op
		}
		c := &MkSrc{SrcID: o.SrcID, Out: out}
		if o.In != nil {
			c.In = ins[0]
		}
		return c
	case *GetD:
		from, out := sub(o.From), sub(o.Out)
		if !changed && from == o.From && out == o.Out {
			return op
		}
		return &GetD{In: ins[0], From: from, Path: o.Path, Out: out}
	case *Select:
		cond := o.Cond.RenameVars(m)
		if !changed && cond == o.Cond {
			return op
		}
		return &Select{In: ins[0], Cond: cond}
	case *Project:
		vars := subs(o.Vars)
		if !changed && same(vars, o.Vars) {
			return op
		}
		return &Project{In: ins[0], Vars: vars}
	case *Join:
		cond := renameCond(o.Cond, m)
		if !changed && cond == o.Cond {
			return op
		}
		return &Join{L: ins[0], R: ins[1], Cond: cond}
	case *SemiJoin:
		cond := renameCond(o.Cond, m)
		if !changed && cond == o.Cond {
			return op
		}
		return &SemiJoin{L: ins[0], R: ins[1], Cond: cond, Keep: o.Keep}
	case *CrElt:
		groupVars, ch, out := subs(o.GroupVars), sub(o.Children.V), sub(o.Out)
		if !changed && same(groupVars, o.GroupVars) && ch == o.Children.V && out == o.Out {
			return op
		}
		return &CrElt{
			In: ins[0], Label: o.Label, SkolemFn: o.SkolemFn,
			GroupVars: groupVars,
			Children:  ChildSpec{V: ch, Wrap: o.Children.Wrap},
			Out:       out,
		}
	case *Cat:
		x, y, out := sub(o.X.V), sub(o.Y.V), sub(o.Out)
		if !changed && x == o.X.V && y == o.Y.V && out == o.Out {
			return op
		}
		return &Cat{
			In:  ins[0],
			X:   ChildSpec{V: x, Wrap: o.X.Wrap},
			Y:   ChildSpec{V: y, Wrap: o.Y.Wrap},
			Out: out,
		}
	case *TD:
		v := sub(o.V)
		if !changed && v == o.V {
			return op
		}
		return &TD{In: ins[0], V: v, RootID: o.RootID}
	case *GroupBy:
		keys, out := subs(o.Keys), sub(o.Out)
		if !changed && same(keys, o.Keys) && out == o.Out {
			return op
		}
		return &GroupBy{In: ins[0], Keys: keys, Out: out, Presorted: o.Presorted}
	case *Apply:
		plan, inp, out := rename(o.Plan, m), sub(o.InpVar), sub(o.Out)
		if !changed && plan == o.Plan && inp == o.InpVar && out == o.Out {
			return op
		}
		return &Apply{In: ins[0], Plan: plan, InpVar: inp, Out: out}
	case *NestedSrc:
		v, vars := sub(o.V), subs(o.Vars)
		if v == o.V && same(vars, o.Vars) {
			return op
		}
		return &NestedSrc{V: v, Vars: vars}
	case *RelQuery:
		var maps []VarMap
		for i, vm := range o.Maps {
			if nv := sub(vm.V); nv != vm.V {
				if maps == nil {
					maps = append([]VarMap(nil), o.Maps...)
				}
				maps[i].V = nv
			}
		}
		if maps == nil {
			return op
		}
		return &RelQuery{Server: o.Server, SQL: o.SQL, Maps: maps}
	case *OrderBy:
		vars := subs(o.Vars)
		if !changed && same(vars, o.Vars) {
			return op
		}
		return &OrderBy{In: ins[0], Vars: vars}
	case *Empty:
		vars := subs(o.Vars)
		if same(vars, o.Vars) {
			return op
		}
		return &Empty{Vars: vars}
	}
	panic(fmt.Sprintf("xmas: Rename: unknown operator %T", op))
}

// renameCond renames an optional join condition, returning c itself when no
// variable of it is renamed.
func renameCond(c *Cond, m map[Var]Var) *Cond {
	if c == nil {
		return nil
	}
	if rc := c.RenameVars(m); rc != *c {
		return &rc
	}
	return c
}

// FreshVars builds a renaming that gives every variable in the plan a primed
// name not present in taken, and returns it. Used when a rewrite duplicates
// a subplan (Table 2 rule 9) and must keep the copies' variables disjoint.
func FreshVars(op Op, taken map[Var]bool, keep map[Var]bool) map[Var]Var {
	m := map[Var]Var{}
	var buf []Var
	Walk(op, func(x Op) bool {
		buf = AppendDefinedVars(buf[:0], x)
		for _, v := range buf {
			if keep[v] {
				continue
			}
			if _, done := m[v]; done {
				continue
			}
			nv := v
			for taken[nv] {
				nv += "'"
			}
			m[v] = nv
			taken[nv] = true
		}
		return true
	})
	return m
}

// AllVars collects every variable mentioned anywhere in the plan. Schemas
// need no walk of their own: every variable in an operator's schema is
// defined or used by some operator at or below it.
func AllVars(op Op) map[Var]bool {
	out := map[Var]bool{}
	var buf []Var
	Walk(op, func(x Op) bool {
		buf = AppendUsedVars(AppendDefinedVars(buf[:0], x), x)
		for _, v := range buf {
			out[v] = true
		}
		return true
	})
	return out
}
