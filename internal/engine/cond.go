package engine

import (
	"math"

	"mix/internal/relstore"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// evalCond evaluates a select/join condition on a tuple. Conditions compare
// atomic values (paper Section 3, operator 3); the id-selection form
// $v = &oid produced by decontextualization compares object ids instead.
// An operand without an atomic value (a list, a set, or a multi-child
// element) fails the condition, mirroring SQL's null semantics.
func evalCond(c xmas.Cond, t Tuple) bool {
	if c.IsIDSelection() {
		id, ok := idOf(t.MustGet(c.Left.V))
		return ok && id == c.Right.Const
	}
	// Symmetric case: &oid = $v.
	if c.Op == xtree.OpEQ && c.Left.IsConst && len(c.Left.Const) > 0 && c.Left.Const[0] == '&' && !c.Right.IsConst {
		id, ok := idOf(t.MustGet(c.Right.V))
		return ok && id == c.Left.Const
	}
	left, ok := operandCmpValue(c.Left, t)
	if !ok {
		return false
	}
	right, ok := operandCmpValue(c.Right, t)
	if !ok {
		return false
	}
	return xtree.EvalCmp(left, c.Op, right)
}

// operandCmpValue resolves an operand to its comparable value: a constant,
// the bound element's atom, or — for elements without an atomic value, such
// as whole tuple objects — its object id. Comparing tuple variables by id is
// how the semi-joins that rule 9 introduces correlate group keys ($C' = $C).
func operandCmpValue(o xmas.Operand, t Tuple) (string, bool) {
	if o.IsConst {
		return o.Const, true
	}
	v, ok := t.Get(o.V)
	if !ok {
		return "", false
	}
	if a, ok := atomOf(v); ok {
		return a, true
	}
	if id, ok := idOf(v); ok && id != "" {
		return id, true
	}
	return "", false
}

// cmpKeyOf extracts the comparable/hashable key of a value: atom first, then
// object id — the same resolution operandCmpValue uses, so hash joins agree
// with evalCond.
func cmpKeyOf(v Value) (string, bool) {
	if a, ok := atomOf(v); ok {
		return a, true
	}
	if id, ok := idOf(v); ok && id != "" {
		return id, true
	}
	return "", false
}

// joinKey is a value as the hash joins match it, agreeing with
// xtree.CompareValues: an atom that parses as a number is keyed by that
// number — numerically equal atoms match — and any other by its text. Two
// numbers match when they print alike: -0 does not match 0, and every NaN
// matches every NaN.
type joinKey struct {
	text string
	bits uint64
	num  bool
}

// joinKeyOf keys a value's cmpKeyOf. A column or value read from a
// relational row is keyed from its Datum, without rendering it; nothing is
// allocated either way.
func joinKeyOf(v Value) (joinKey, bool) {
	if r, ok := v.(*rowRef); ok && r.spec.kind != specTuple {
		switch d := r.datum(); d.Kind {
		case relstore.TInt:
			return numberKey(float64(d.I)), true
		case relstore.TFloat:
			return numberKey(d.F()), true
		default:
			return textKey(d.S), true
		}
	}
	a, ok := cmpKeyOf(v)
	if !ok {
		return joinKey{}, false
	}
	return textKey(a), true
}

func textKey(a string) joinKey {
	if f, ok := xtree.ParseNumber(a); ok {
		return numberKey(f)
	}
	return joinKey{text: a}
}

func numberKey(f float64) joinKey {
	if f != f {
		f = math.NaN()
	}
	return joinKey{bits: math.Float64bits(f), num: true}
}
