package xquery

import "mix/internal/xtree"

// Query is a FOR-WHERE-RETURN expression (paper Figure 4). Queries also
// appear nested inside element constructors ("ElementList ::= ... | Query").
type Query struct {
	For   []ForBinding
	Where []Condition
	// OrderBy lists variables whose node ids order the result (an
	// extension mapping onto the XMAS orderBy operator, which sorts by
	// ids; the paper's Figure 4 grammar has no order clause).
	OrderBy []string
	Return  Element
}

// ForBinding binds Var to the nodes reached by Path from either a document
// root (Source non-empty) or another variable (FromVar non-empty). The two
// forms correspond to the paper's
//
//	$v IN document("src")/label/path
//	$v IN Variable/path
//
// Source keeps whatever the query wrote: "&root1" (an oid constant, as in
// source(&root1)), a name like "db1", or the special name "root" used by
// in-place queries issued from a navigation node (paper Section 2, command q).
type ForBinding struct {
	Var     string
	Source  string
	FromVar string
	Path    []string
}

// Condition is one conjunct of the WHERE clause.
type Condition struct {
	Left  Operand
	Op    xtree.CmpOp
	Right Operand
}

// Operand is one side of a comparison: either a constant or a path rooted at
// a variable, optionally ending in data() (which atomizes the reached node;
// see xtree.Node.Atom).
type Operand struct {
	IsConst bool
	Const   string

	Var  string
	Path []string
	Data bool
}

// Element is the RETURN-clause content: either an element constructor or a
// variable reference.
type Element interface {
	Content
	isElement()
}

// Content is anything that may appear inside an element constructor:
// a nested constructor, a variable reference, or a nested query.
type Content interface{ isContent() }

// ElemCtor is <Label> children </Label> { groupBy }.
type ElemCtor struct {
	Label    string
	Children []Content
	GroupBy  []string // variables, e.g. ["$C"]; empty when no group-by list
}

// VarRef references a bound variable inside RETURN.
type VarRef struct{ Var string }

func (*ElemCtor) isElement() {}
func (*ElemCtor) isContent() {}
func (*VarRef) isElement()   {}
func (*VarRef) isContent()   {}
func (*Query) isContent()    {}

// Vars returns the set of variables bound by the FOR clause, in order.
func (q *Query) Vars() []string {
	out := make([]string, len(q.For))
	for i, f := range q.For {
		out[i] = f.Var
	}
	return out
}

// UsesVar reports whether v occurs anywhere in the query (FOR sources,
// WHERE operands, or RETURN content, including nested queries).
func (q *Query) UsesVar(v string) bool {
	for _, f := range q.For {
		if f.FromVar == v {
			return true
		}
	}
	for _, c := range q.Where {
		if (!c.Left.IsConst && c.Left.Var == v) || (!c.Right.IsConst && c.Right.Var == v) {
			return true
		}
	}
	for _, o := range q.OrderBy {
		if o == v {
			return true
		}
	}
	return contentUsesVar(q.Return, v)
}

func contentUsesVar(c Content, v string) bool {
	switch x := c.(type) {
	case *VarRef:
		return x.Var == v
	case *ElemCtor:
		for _, g := range x.GroupBy {
			if g == v {
				return true
			}
		}
		for _, k := range x.Children {
			if contentUsesVar(k, v) {
				return true
			}
		}
	case *Query:
		return x.UsesVar(v)
	}
	return false
}

// Wildcard is the any-label path step, written '*' in queries. It matches
// the algebra's wildcard (xmas.Wildcard) so paths flow through translation
// unchanged.
const Wildcard = "%"
