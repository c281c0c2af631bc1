package xmas

import (
	"fmt"

	"mix/internal/xtree"
)

// VerifyError is a typed static-verification failure. Callers (the engine's
// compiler, the rewrite gate, the wire fuzzer) match on it with errors.As to
// distinguish a statically rejected plan from an execution failure.
type VerifyError struct {
	Rule string // machine-readable rule id: "well-formed", "nested-schema"
	Op   string // Describe() of the offending operator, "" when plan-wide
	Msg  string
}

func (e *VerifyError) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("xmas: verify[%s]: %s", e.Rule, e.Msg)
	}
	return fmt.Sprintf("xmas: verify[%s]: %s: %s", e.Rule, e.Op, e.Msg)
}

// Verify statically checks a plan beyond Validate's well-formedness: every
// variable is bound before use, no operator redefines a live variable, and —
// the check Validate misses — every nestedSrc declares a schema the
// enclosing apply's partition actually binds. A plan that passes Verify
// cannot hit the engine's "variable not bound in schema" panic through a
// nested-plan read; a plan that fails returns a *VerifyError instead of
// compiling.
func Verify(root Op) error {
	var buf []Var
	if _, err := validate(root, true, &buf); err != nil {
		return &VerifyError{Rule: "well-formed", Msg: err.Error()}
	}
	if verr := verifyNestedSchemas(root); verr != nil {
		return verr
	}
	return nil
}

// verifyNestedSchemas checks, for every apply whose partition variable is
// produced by a gBy below it, that each nSrc reading that partition declares
// only variables the partition tuples bind. The engine materializes
// partition sets with the gBy input's full schema (compileGroupBy), so a
// declared variable outside it reads an unbound slot at runtime.
func verifyNestedSchemas(root Op) *VerifyError {
	var verr *VerifyError
	Walk(root, func(op Op) bool {
		if verr != nil {
			return false
		}
		a, ok := op.(*Apply)
		if !ok {
			return true
		}
		part, known := partitionSchema(a.In, a.InpVar)
		if !known {
			return true // partition producer not statically visible
		}
		Walk(a.Plan, func(x Op) bool {
			ns, ok := x.(*NestedSrc)
			if !ok || ns.V != a.InpVar {
				return true
			}
			for _, v := range ns.Vars {
				if !HasVar(part, v) {
					verr = &VerifyError{
						Rule: "nested-schema",
						Op:   Describe(a),
						Msg: fmt.Sprintf("nSrc(%s) declares %s which the partition schema %v does not bind",
							ns.V, v, part),
					}
					return false
				}
			}
			return true
		})
		return verr == nil
	})
	return verr
}

// partitionSchema resolves the tuple schema of the set bound to v within the
// subtree op: the input schema of the gBy that produced it. known=false when
// the producer is not a gBy in the subtree (the variable may arrive via an
// outer nestedSrc, where the outer plan holds the schema).
func partitionSchema(op Op, v Var) (schema []Var, known bool) {
	def := findDefiner(op, v)
	if g, ok := def.(*GroupBy); ok {
		return g.In.Schema(), true
	}
	return nil, false
}

// findDefiner locates the operator defining v in the subtree, preferring a
// real producer over a nestedSrc re-export (mirrors the rewriter's findDef).
func findDefiner(op Op, v Var) Op {
	var real, nested Op
	var buf []Var
	Walk(op, func(x Op) bool {
		if real != nil {
			return false
		}
		buf = AppendDefinedVars(buf[:0], x)
		for _, d := range buf {
			if d != v {
				continue
			}
			if _, isNested := x.(*NestedSrc); isNested {
				if nested == nil {
					nested = x
				}
			} else {
				real = x
				return false
			}
		}
		return true
	})
	if real != nil {
		return real
	}
	return nested
}

// Lint reports statically unsatisfiable predicates: select conditions that
// compare two constants to false, and stacked selects binding the same
// variable to two different equality constants. Findings are advisory, not
// Verify errors — the rewriter legitimately creates unsatisfiable subtrees
// (e.g. while unfolding a cat) and then eliminates them, so the gate must
// not reject intermediate plans that merely contain dead branches.
func Lint(root Op) []*VerifyError {
	var out []*VerifyError
	Walk(root, func(op Op) bool {
		s, ok := op.(*Select)
		if !ok {
			return true
		}
		c := s.Cond
		if c.Left.IsConst && c.Right.IsConst && !xtree.EvalCmp(c.Left.Const, c.Op, c.Right.Const) {
			out = append(out, &VerifyError{
				Rule: "unsat-cond",
				Op:   Describe(op),
				Msg:  fmt.Sprintf("condition %s is constant false", c),
			})
			return true
		}
		// σ[$v = c1] stacked over σ[$v = c2] with c1 ≠ c2 selects nothing.
		if eqVar, eqConst, ok := constEquality(c); ok {
			for in := s.In; ; {
				inner, isSel := in.(*Select)
				if !isSel {
					break
				}
				if v2, c2, ok := constEquality(inner.Cond); ok && v2 == eqVar && c2 != eqConst {
					out = append(out, &VerifyError{
						Rule: "unsat-cond",
						Op:   Describe(op),
						Msg: fmt.Sprintf("condition %s contradicts input selection %s = %q",
							c, eqVar, c2),
					})
					break
				}
				in = inner.In
			}
		}
		return true
	})
	return out
}

// constEquality decomposes c into ($v = const) if it has that shape.
func constEquality(c Cond) (Var, string, bool) {
	if c.Op != xtree.OpEQ {
		return "", "", false
	}
	switch {
	case !c.Left.IsConst && c.Right.IsConst:
		return c.Left.V, c.Right.Const, true
	case c.Left.IsConst && !c.Right.IsConst:
		return c.Right.V, c.Left.Const, true
	}
	return "", "", false
}
