package xmas

import (
	"strings"

	"mix/internal/xtree"
)

// Cond is a select/join condition (paper operators 3, 5):
//
//	$v op constant        — Right.IsConst
//	$v1 op $v2            — both operands variables
//
// Selection on object ids ($C = &XYZ123, paper Figure 10) is expressed as a
// constant comparison whose constant begins with '&'; the engine compares
// against the node id instead of the atomized value in that case.
type Cond struct {
	Left  Operand
	Op    xtree.CmpOp
	Right Operand
}

// Operand is a condition operand.
type Operand struct {
	IsConst bool
	Const   string
	V       Var
}

// VarOperand makes a variable operand.
func VarOperand(v Var) Operand { return Operand{V: v} }

// ConstOperand makes a constant operand.
func ConstOperand(c string) Operand { return Operand{IsConst: true, Const: c} }

// NewVarConstCond builds $v op c.
func NewVarConstCond(v Var, op xtree.CmpOp, c string) Cond {
	return Cond{Left: VarOperand(v), Op: op, Right: ConstOperand(c)}
}

// NewVarVarCond builds $v1 op $v2.
func NewVarVarCond(v1 Var, op xtree.CmpOp, v2 Var) Cond {
	return Cond{Left: VarOperand(v1), Op: op, Right: VarOperand(v2)}
}

// Vars returns the variables the condition references.
func (c Cond) Vars() []Var { return c.AppendVars(nil) }

// AppendVars appends the variables the condition references to dst.
func (c Cond) AppendVars(dst []Var) []Var {
	if !c.Left.IsConst {
		dst = append(dst, c.Left.V)
	}
	if !c.Right.IsConst {
		dst = append(dst, c.Right.V)
	}
	return dst
}

// IsIDSelection reports whether the condition fixes a variable to an object
// id (a constant beginning with '&'), as decontextualization produces.
func (c Cond) IsIDSelection() bool {
	return c.Op == xtree.OpEQ && c.Right.IsConst && strings.HasPrefix(c.Right.Const, "&") && !c.Left.IsConst
}

func (o Operand) String() string {
	if o.IsConst {
		if strings.HasPrefix(o.Const, "&") {
			return o.Const
		}
		if isNumeric(o.Const) {
			return o.Const
		}
		return `"` + o.Const + `"`
	}
	return string(o.V)
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !dot:
			dot = true
		case c == '-' && i == 0:
		default:
			return false
		}
	}
	return true
}

func (c Cond) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// RenameVars returns the condition with variables substituted per m.
func (c Cond) RenameVars(m map[Var]Var) Cond {
	out := c
	if !out.Left.IsConst {
		if nv, ok := m[out.Left.V]; ok {
			out.Left.V = nv
		}
	}
	if !out.Right.IsConst {
		if nv, ok := m[out.Right.V]; ok {
			out.Right.V = nv
		}
	}
	return out
}
