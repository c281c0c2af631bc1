package xmas

import "fmt"

// Clone deep-copies a plan, including nested apply plans.
func Clone(op Op) Op {
	if op == nil {
		return nil
	}
	ins := op.Inputs()
	copied := make([]Op, len(ins))
	for i, in := range ins {
		copied[i] = Clone(in)
	}
	out := op.WithInputs(copied...)
	if a, ok := out.(*Apply); ok {
		a.Plan = Clone(a.Plan)
	}
	return out
}

// Walk visits op and every operator below it, including nested apply plans,
// in pre-order. If fn returns false the subtree is skipped.
func Walk(op Op, fn func(Op) bool) {
	if op == nil {
		return
	}
	if !fn(op) {
		return
	}
	if a, ok := op.(*Apply); ok {
		Walk(a.Plan, fn)
	}
	for _, in := range op.Inputs() {
		Walk(in, fn)
	}
}

// Count returns the number of operators in the plan (nested plans included).
func Count(op Op) int {
	n := 0
	Walk(op, func(Op) bool { n++; return true })
	return n
}

// DefinedVars returns the variables introduced by this operator itself
// (not by its inputs).
func DefinedVars(op Op) []Var {
	switch o := op.(type) {
	case *MkSrc:
		return []Var{o.Out}
	case *GetD:
		return []Var{o.Out}
	case *CrElt:
		return []Var{o.Out}
	case *Cat:
		return []Var{o.Out}
	case *GroupBy:
		return []Var{o.Out}
	case *Apply:
		return []Var{o.Out}
	case *NestedSrc:
		return append([]Var{}, o.Vars...)
	case *RelQuery:
		return o.Schema()
	case *Empty:
		return append([]Var{}, o.Vars...)
	}
	return nil
}

// UsedVars returns the variables this operator reads (from its inputs'
// schemas), not counting pass-through.
func UsedVars(op Op) []Var {
	switch o := op.(type) {
	case *GetD:
		return []Var{o.From}
	case *Select:
		return o.Cond.Vars()
	case *Project:
		return append([]Var{}, o.Vars...)
	case *Join:
		if o.Cond != nil {
			return o.Cond.Vars()
		}
	case *SemiJoin:
		if o.Cond != nil {
			return o.Cond.Vars()
		}
	case *CrElt:
		vs := append([]Var{}, o.GroupVars...)
		return append(vs, o.Children.V)
	case *Cat:
		return []Var{o.X.V, o.Y.V}
	case *TD:
		return []Var{o.V}
	case *GroupBy:
		return append([]Var{}, o.Keys...)
	case *Apply:
		// The nested plan reads InpVar plus whatever its nestedSrc carries.
		return []Var{o.InpVar}
	case *OrderBy:
		return append([]Var{}, o.Vars...)
	}
	return nil
}

// HasVar reports whether schema contains v.
func HasVar(schema []Var, v Var) bool {
	for _, s := range schema {
		if s == v {
			return true
		}
	}
	return false
}

// Validate checks structural well-formedness: every variable an operator
// uses is present in its input schema, no operator redefines a variable its
// input already binds, TD appears only at the root of a plan (or a nested
// plan), and relQuery/mkSrc/nestedSrc appear only as leaves (guaranteed by
// construction but re-checked for rewrite-rule sanity).
func Validate(root Op) error {
	_, err := validate(root, true)
	return err
}

// validate checks op and everything below it and returns op's schema, built
// from the schemas its inputs returned so that no node's schema is computed
// twice (Op.Schema recomputes its inputs' on every call).
func validate(op Op, isRoot bool) ([]Var, error) {
	if op == nil {
		return nil, fmt.Errorf("xmas: nil operator")
	}
	if _, ok := op.(*TD); ok && !isRoot {
		return nil, fmt.Errorf("xmas: tD may only appear at the root of a plan")
	}
	ins := op.Inputs()
	// A mkSrc input (naive composition) is itself a full plan rooted at tD.
	_, childIsPlan := op.(*MkSrc)
	inSchemas := make([][]Var, len(ins))
	for i, in := range ins {
		s, err := validate(in, childIsPlan)
		if err != nil {
			return nil, err
		}
		inSchemas[i] = s
	}
	// Schema checks. A mkSrc input exports a document, not bindings.
	var inSchema []Var
	if !childIsPlan {
		for _, s := range inSchemas {
			inSchema = append(inSchema, s...)
		}
	}
	seen := make(map[Var]bool, len(inSchema))
	for _, v := range inSchema {
		if seen[v] {
			return nil, fmt.Errorf("xmas: %s: variable %s bound twice in input schema", op.Name(), v)
		}
		seen[v] = true
	}
	for _, v := range UsedVars(op) {
		if !seen[v] {
			return nil, fmt.Errorf("xmas: %s uses %s which is not in its input schema %v", Describe(op), v, inSchema)
		}
	}
	for _, v := range DefinedVars(op) {
		if len(ins) > 0 && seen[v] {
			return nil, fmt.Errorf("xmas: %s redefines %s", Describe(op), v)
		}
	}
	if m, ok := op.(*MkSrc); ok && m.In != nil {
		if _, isTD := m.In.(*TD); !isTD {
			return nil, fmt.Errorf("xmas: mkSrc(%s) input must be a tD-rooted plan", m.SrcID)
		}
	}
	if a, ok := op.(*Apply); ok {
		if _, err := validate(a.Plan, true); err != nil {
			return nil, fmt.Errorf("nested plan of %s: %w", Describe(a), err)
		}
		found := false
		Walk(a.Plan, func(x Op) bool {
			if ns, ok := x.(*NestedSrc); ok && ns.V == a.InpVar {
				found = true
			}
			return true
		})
		if !found {
			return nil, fmt.Errorf("xmas: nested plan of %s has no nSrc(%s)", Describe(a), a.InpVar)
		}
	}
	return schemaOf(op, func(in Op) []Var {
		for i, x := range ins {
			if x == in {
				return inSchemas[i]
			}
		}
		return in.Schema()
	}), nil
}

// Equal reports structural equality of two plans, comparing every operator
// parameter and nested plan. Golden figure tests rely on it.
func Equal(a, b Op) bool {
	if a == nil || b == nil {
		return a == b
	}
	if Describe(a) != Describe(b) {
		return false
	}
	ai, bi := a.Inputs(), b.Inputs()
	if len(ai) != len(bi) {
		return false
	}
	if aa, ok := a.(*Apply); ok {
		ba := b.(*Apply)
		if !Equal(aa.Plan, ba.Plan) {
			return false
		}
	}
	if ag, ok := a.(*GroupBy); ok {
		bg := b.(*GroupBy)
		if ag.Presorted != bg.Presorted {
			return false
		}
	}
	for i := range ai {
		if !Equal(ai[i], bi[i]) {
			return false
		}
	}
	return true
}

// SourceIDs returns the distinct sources a plan reads — mkSrc document ids
// and relQuery servers (prefixed "sql:") — in first-reference order, nested
// apply plans and view inputs included. The engine's parallel scheduler uses
// it to decide whether overlapping a subtree's evaluation can actually hide
// source latency.
func SourceIDs(op Op) []string {
	var out []string
	seen := map[string]bool{}
	Walk(op, func(o Op) bool {
		switch x := o.(type) {
		case *MkSrc:
			if !seen[x.SrcID] {
				seen[x.SrcID] = true
				out = append(out, x.SrcID)
			}
		case *RelQuery:
			id := "sql:" + x.Server
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return true
	})
	return out
}

// TouchesSource reports whether evaluating the plan contacts any source
// (an mkSrc or relQuery anywhere in the subtree, nested plans included).
func TouchesSource(op Op) bool { return len(SourceIDs(op)) > 0 }

// ReadsPartition reports whether the plan contains a nestedSrc — i.e. the
// subtree reads partition state owned by an enclosing apply. Such subtrees
// share memoizing lazy state with their surroundings and must stay on the
// consumer's goroutine.
func ReadsPartition(op Op) bool {
	found := false
	Walk(op, func(o Op) bool {
		if _, ok := o.(*NestedSrc); ok {
			found = true
		}
		return !found
	})
	return found
}
