package xmas

import "fmt"

// Rename returns a deep copy of the plan with every occurrence of the
// variables in m substituted — in schemas, conditions, parameters, and
// nested plans. Rewriting rules use it both for the rule-2 "$X ↦ $Z"
// equivalence substitutions and for freshening copied subplans (rule 9).
func Rename(op Op, m map[Var]Var) Op {
	if op == nil || len(m) == 0 {
		return Clone(op)
	}
	sub := func(v Var) Var {
		if nv, ok := m[v]; ok {
			return nv
		}
		return v
	}
	subs := func(vs []Var) []Var {
		out := make([]Var, len(vs))
		for i, v := range vs {
			out[i] = sub(v)
		}
		return out
	}
	ins := op.Inputs()
	newIns := make([]Op, len(ins))
	for i, in := range ins {
		newIns[i] = Rename(in, m)
	}
	switch o := op.(type) {
	case *MkSrc:
		c := &MkSrc{SrcID: o.SrcID, Out: sub(o.Out)}
		if o.In != nil {
			c.In = newIns[0]
		}
		return c
	case *GetD:
		return &GetD{In: newIns[0], From: sub(o.From), Path: o.Path, Out: sub(o.Out)}
	case *Select:
		return &Select{In: newIns[0], Cond: o.Cond.RenameVars(m)}
	case *Project:
		return &Project{In: newIns[0], Vars: subs(o.Vars)}
	case *Join:
		j := &Join{L: newIns[0], R: newIns[1]}
		if o.Cond != nil {
			c := o.Cond.RenameVars(m)
			j.Cond = &c
		}
		return j
	case *SemiJoin:
		s := &SemiJoin{L: newIns[0], R: newIns[1], Keep: o.Keep}
		if o.Cond != nil {
			c := o.Cond.RenameVars(m)
			s.Cond = &c
		}
		return s
	case *CrElt:
		return &CrElt{
			In: newIns[0], Label: o.Label, SkolemFn: o.SkolemFn,
			GroupVars: subs(o.GroupVars),
			Children:  ChildSpec{V: sub(o.Children.V), Wrap: o.Children.Wrap},
			Out:       sub(o.Out),
		}
	case *Cat:
		return &Cat{
			In:  newIns[0],
			X:   ChildSpec{V: sub(o.X.V), Wrap: o.X.Wrap},
			Y:   ChildSpec{V: sub(o.Y.V), Wrap: o.Y.Wrap},
			Out: sub(o.Out),
		}
	case *TD:
		return &TD{In: newIns[0], V: sub(o.V), RootID: o.RootID}
	case *GroupBy:
		return &GroupBy{In: newIns[0], Keys: subs(o.Keys), Out: sub(o.Out), Presorted: o.Presorted}
	case *Apply:
		return &Apply{In: newIns[0], Plan: Rename(o.Plan, m), InpVar: sub(o.InpVar), Out: sub(o.Out)}
	case *NestedSrc:
		return &NestedSrc{V: sub(o.V), Vars: subs(o.Vars)}
	case *RelQuery:
		maps := make([]VarMap, len(o.Maps))
		for i, vm := range o.Maps {
			vm.V = sub(vm.V)
			vm.Cols = append([]ColSpec{}, o.Maps[i].Cols...)
			vm.KeyCols = append([]int{}, o.Maps[i].KeyCols...)
			maps[i] = vm
		}
		return &RelQuery{Server: o.Server, SQL: o.SQL, Maps: maps}
	case *OrderBy:
		return &OrderBy{In: newIns[0], Vars: subs(o.Vars)}
	case *Empty:
		return &Empty{Vars: subs(o.Vars)}
	}
	panic(fmt.Sprintf("xmas: Rename: unknown operator %T", op))
}

// FreshVars builds a renaming that gives every variable in the plan a primed
// name not present in taken, and returns it. Used when a rewrite duplicates
// a subplan (Table 2 rule 9) and must keep the copies' variables disjoint.
func FreshVars(op Op, taken map[Var]bool, keep map[Var]bool) map[Var]Var {
	m := map[Var]Var{}
	Walk(op, func(x Op) bool {
		for _, v := range DefinedVars(x) {
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
	Walk(op, func(x Op) bool {
		for _, v := range DefinedVars(x) {
			out[v] = true
		}
		for _, v := range UsedVars(x) {
			out[v] = true
		}
		return true
	})
	return out
}
