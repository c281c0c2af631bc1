package xmas

import "fmt"

// Clone deep-copies a plan, including nested apply plans and every parameter
// slice, so that the copy may be edited without touching the original.
func Clone(op Op) Op {
	if op == nil {
		return nil
	}
	ins, n := InputsOf(op)
	for i := 0; i < n; i++ {
		ins[i] = Clone(ins[i])
	}
	out := op.WithInputs(append([]Op(nil), ins[:n]...)...)
	switch o := out.(type) {
	case *Apply:
		o.Plan = Clone(o.Plan)
	case *Project:
		o.Vars = append([]Var(nil), o.Vars...)
	case *CrElt:
		o.GroupVars = append([]Var(nil), o.GroupVars...)
	case *GroupBy:
		o.Keys = append([]Var(nil), o.Keys...)
	case *OrderBy:
		o.Vars = append([]Var(nil), o.Vars...)
	case *NestedSrc:
		o.Vars = append([]Var(nil), o.Vars...)
	case *Empty:
		o.Vars = append([]Var(nil), o.Vars...)
	case *RelQuery:
		maps := make([]VarMap, len(o.Maps))
		for i, m := range o.Maps {
			m.Cols = append([]ColSpec(nil), m.Cols...)
			m.KeyCols = append([]int(nil), m.KeyCols...)
			maps[i] = m
		}
		o.Maps = maps
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
	ins, n := InputsOf(op)
	for _, in := range ins[:n] {
		Walk(in, fn)
	}
}

// Count returns the number of operators in the plan (nested plans included).
func Count(op Op) int {
	n := 0
	Walk(op, func(Op) bool { n++; return true })
	return n
}

// AppendDefinedVars appends the variables introduced by op itself (not by its
// inputs) to dst: a walk that reuses one buffer allocates nothing per node.
func AppendDefinedVars(dst []Var, op Op) []Var {
	switch o := op.(type) {
	case *MkSrc:
		return append(dst, o.Out)
	case *GetD:
		return append(dst, o.Out)
	case *CrElt:
		return append(dst, o.Out)
	case *Cat:
		return append(dst, o.Out)
	case *GroupBy:
		return append(dst, o.Out)
	case *Apply:
		return append(dst, o.Out)
	case *NestedSrc:
		return append(dst, o.Vars...)
	case *RelQuery:
		for _, m := range o.Maps {
			dst = append(dst, m.V)
		}
		return dst
	case *Empty:
		return append(dst, o.Vars...)
	}
	return dst
}

// AppendUsedVars appends the variables op reads from its inputs' schemas,
// not counting pass-through, to dst.
func AppendUsedVars(dst []Var, op Op) []Var {
	switch o := op.(type) {
	case *GetD:
		return append(dst, o.From)
	case *Select:
		return o.Cond.AppendVars(dst)
	case *Project:
		return append(dst, o.Vars...)
	case *Join:
		if o.Cond != nil {
			return o.Cond.AppendVars(dst)
		}
	case *SemiJoin:
		if o.Cond != nil {
			return o.Cond.AppendVars(dst)
		}
	case *CrElt:
		return append(append(dst, o.GroupVars...), o.Children.V)
	case *Cat:
		return append(dst, o.X.V, o.Y.V)
	case *TD:
		return append(dst, o.V)
	case *GroupBy:
		return append(dst, o.Keys...)
	case *Apply:
		// The nested plan reads InpVar plus whatever its nestedSrc carries.
		return append(dst, o.InpVar)
	case *OrderBy:
		return append(dst, o.Vars...)
	}
	return dst
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
	var buf []Var
	_, err := validate(root, true, &buf)
	return err
}

// validate checks op and everything below it and returns op's schema, built
// from the schemas its inputs returned so that no node's schema is computed
// twice (Op.Schema recomputes its inputs' on every call). buf holds one
// node's variable lists at a time and is reused from node to node.
func validate(op Op, isRoot bool, buf *[]Var) ([]Var, error) {
	if op == nil {
		return nil, fmt.Errorf("xmas: nil operator")
	}
	if _, ok := op.(*TD); ok && !isRoot {
		return nil, fmt.Errorf("xmas: tD may only appear at the root of a plan")
	}
	ins, n := InputsOf(op)
	// A mkSrc input (naive composition) is itself a full plan rooted at tD.
	_, childIsPlan := op.(*MkSrc)
	var inSchemas [2][]Var
	for i := 0; i < n; i++ {
		s, err := validate(ins[i], childIsPlan, buf)
		if err != nil {
			return nil, err
		}
		inSchemas[i] = s
	}
	// Schema checks. A mkSrc input exports a document, not bindings.
	var inSchema []Var
	switch {
	case childIsPlan:
	case n == 1:
		inSchema = inSchemas[0]
	case n == 2:
		inSchema = append(append(make([]Var, 0, len(inSchemas[0])+len(inSchemas[1])), inSchemas[0]...), inSchemas[1]...)
	}
	for i, v := range inSchema {
		if HasVar(inSchema[:i], v) {
			return nil, fmt.Errorf("xmas: %s: variable %s bound twice in input schema", op.Name(), v)
		}
	}
	*buf = AppendUsedVars((*buf)[:0], op)
	for _, v := range *buf {
		if !HasVar(inSchema, v) {
			return nil, fmt.Errorf("xmas: %s uses %s which is not in its input schema %v", Describe(op), v, inSchema)
		}
	}
	if n > 0 {
		*buf = AppendDefinedVars((*buf)[:0], op)
		for _, v := range *buf {
			if HasVar(inSchema, v) {
				return nil, fmt.Errorf("xmas: %s redefines %s", Describe(op), v)
			}
		}
	}
	if m, ok := op.(*MkSrc); ok && m.In != nil {
		if _, isTD := m.In.(*TD); !isTD {
			return nil, fmt.Errorf("xmas: mkSrc(%s) input must be a tD-rooted plan", m.SrcID)
		}
	}
	if a, ok := op.(*Apply); ok {
		if _, err := validate(a.Plan, true, buf); err != nil {
			return nil, fmt.Errorf("nested plan of %s: %w", Describe(a), err)
		}
		found := false
		Walk(a.Plan, func(x Op) bool {
			if ns, ok := x.(*NestedSrc); ok && ns.V == a.InpVar {
				found = true
			}
			return !found
		})
		if !found {
			return nil, fmt.Errorf("xmas: nested plan of %s has no nSrc(%s)", Describe(a), a.InpVar)
		}
	}
	return schemaOf(op, func(in Op) []Var {
		for i, x := range ins[:n] {
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
	ai, an := InputsOf(a)
	bi, bn := InputsOf(b)
	if an != bn {
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
	for i := 0; i < an; i++ {
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
