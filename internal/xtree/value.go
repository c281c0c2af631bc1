package xtree

import "strconv"

// CmpOp is a comparison operator usable in selection and join conditions
// (paper Section 3, operators 3 and 5: =, ≠, <, >, ≤, ≥).
type CmpOp int

// The comparison operators of the XMAS select and join conditions.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

var cmpOpNames = [...]string{"=", "!=", "<", "<=", ">", ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return "?"
}

// ParseCmpOp parses the textual form of a comparison operator.
func ParseCmpOp(s string) (CmpOp, bool) {
	switch s {
	case "=", "==":
		return OpEQ, true
	case "!=", "<>":
		return OpNE, true
	case "<":
		return OpLT, true
	case "<=":
		return OpLE, true
	case ">":
		return OpGT, true
	case ">=":
		return OpGE, true
	}
	return 0, false
}

// Negate returns the complement operator (used by rewrite-rule sanity checks).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEQ:
		return OpNE
	case OpNE:
		return OpEQ
	case OpLT:
		return OpGE
	case OpLE:
		return OpGT
	case OpGT:
		return OpLE
	default:
		return OpLT
	}
}

// Flip returns the operator with its operands swapped: a op b ≡ b Flip(op) a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return op
	}
}

// ParseNumber is strconv.ParseFloat(s, 64) as a test — the number and true,
// or false where ParseFloat returns an error — without the two allocations
// ParseFloat spends on the error of a string that is plainly not a number. A
// Go float starts with a sign, a digit or a point, or is "nan", "inf" or
// "infinity" in any case; anything else is rejected before ParseFloat sees
// it. The test is exact: it turns away no string ParseFloat accepts.
func ParseNumber(s string) (float64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.':
	case c == 'n' || c == 'N':
		if len(s) != len("nan") {
			return 0, false
		}
	case c == 'i' || c == 'I':
		if len(s) != len("inf") && len(s) != len("infinity") {
			return 0, false
		}
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// CompareValues compares two values from D. When both parse as numbers the
// comparison is numeric, otherwise lexicographic — this mirrors the loosely
// typed "string-like" constants of the paper's data model while still making
// conditions like value < 500 behave as a user expects.
func CompareValues(x, y string) int {
	if fx, ok := ParseNumber(x); ok {
		if fy, ok := ParseNumber(y); ok {
			switch {
			case fx < fy:
				return -1
			case fx > fy:
				return 1
			default:
				return 0
			}
		}
	}
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	default:
		return 0
	}
}

// EvalCmp applies op to the atomic values x and y.
func EvalCmp(x string, op CmpOp, y string) bool {
	c := CompareValues(x, y)
	switch op {
	case OpEQ:
		return c == 0
	case OpNE:
		return c != 0
	case OpLT:
		return c < 0
	case OpLE:
		return c <= 0
	case OpGT:
		return c > 0
	case OpGE:
		return c >= 0
	}
	return false
}
