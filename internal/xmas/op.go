// Package xmas implements the XMAS algebra of paper Section 3: a
// tuple-oriented algebra over sets of binding lists, with operators for
// source access (mkSrc, relQuery, nestedSrc), navigation (getD), filtering
// (select, join, semi-joins), restructuring (crElt, cat, groupBy, apply,
// orderBy, project) and result export (tD).
//
// Plans are trees of Op values, and a plan is immutable once built. A
// transformation builds new nodes along the path it changes (WithInputs,
// MapInputs, Rename) and shares every untouched subtree with its input, down
// to parameter slices such as Project.Vars or CrElt.GroupVars. So one node
// may belong to many plans at once: a view's plan and every in-place query
// composed with it, or each step of a rewrite. Code that holds a plan must
// never assign to a node's fields or to the elements of its slices; build a
// new node instead (Clone gives a private deep copy when a test needs one to
// edit).
package xmas

import "fmt"

// Var names a binding-list attribute, written with a leading '$' ("$C").
type Var string

// Op is one XMAS operator. InputsOf and WithInputs support generic plan
// traversal and functional rewriting.
type Op interface {
	// Schema is the ordered list of variables in the operator's output
	// binding lists. TD, which exports a document rather than binding
	// lists, has a nil schema.
	Schema() []Var
	// WithInputs returns a copy of the operator with the inputs replaced,
	// sharing every other field. in holds as many inputs as InputsOf
	// reports, in its order.
	WithInputs(in ...Op) Op
	// Name is the operator's algebra name as printed in plans ("getD").
	Name() string
}

// schemaOf holds the schema rule of every operator whose schema depends on
// its inputs; in gives an input's schema. The Schema methods pass Op.Schema;
// Validate passes the schemas it has already built, so that no subtree's
// schema is computed twice. Other operators answer their own Schema.
func schemaOf(op Op, in func(Op) []Var) []Var {
	withOut := func(s []Var, out Var) []Var { return append(append(make([]Var, 0, len(s)+1), s...), out) }
	switch o := op.(type) {
	case *GetD:
		return withOut(in(o.In), o.Out)
	case *CrElt:
		return withOut(in(o.In), o.Out)
	case *Cat:
		return withOut(in(o.In), o.Out)
	case *Apply:
		return withOut(in(o.In), o.Out)
	case *Select:
		return in(o.In)
	case *OrderBy:
		return in(o.In)
	case *Join:
		return append(append([]Var{}, in(o.L)...), in(o.R)...)
	case *SemiJoin:
		if o.Keep == KeepLeft {
			return in(o.L)
		}
		return in(o.R)
	}
	return op.Schema()
}

// MkSrc is the source operator mkSrc_{&srcid,$X} (paper operator 1): it binds
// Out to each child of the document root &srcid, producing one tuple per
// child.
//
// In is normally nil (the document comes from the catalog). The naive
// composition of a query with a view (paper Section 6, Figure 13) "sets the
// input of the source operator as the plan p1": In then holds the view plan
// (rooted at its tD), and Out ranges over the children of the view's result
// root. Rewrite rule 11 eliminates this form; the engine can also execute it
// directly, which is the naive baseline of experiment E11.
type MkSrc struct {
	SrcID string // document root id, e.g. "&root1", or the in-place "root"
	Out   Var
	In    Op // optional view plan (naive composition only)
}

func (o *MkSrc) Schema() []Var { return []Var{o.Out} }
func (o *MkSrc) WithInputs(in ...Op) Op {
	c := *o
	switch len(in) {
	case 0:
		c.In = nil
	case 1:
		c.In = in[0]
	default:
		mustArity(o, in, 1)
	}
	return &c
}
func (o *MkSrc) Name() string { return "mkSrc" }

// GetD is the get-descendants operator getD_{$A:r → $X} (paper operator 2).
// For each input tuple it binds Out to every node reachable from the node
// bound to From by a downward path whose labels spell Path. Paths include
// the labels of both the start and finish node, so a single-label path
// matches the start node itself when the label agrees.
type GetD struct {
	In   Op
	From Var
	Path Path
	Out  Var
}

func (o *GetD) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *GetD) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *GetD) Name() string { return "getD" }

// Select is σ_c (paper operator 3): keeps the tuples satisfying Cond.
type Select struct {
	In   Op
	Cond Cond
}

func (o *Select) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *Select) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *Select) Name() string { return "select" }

// Project is π (paper operator 4): relational projection with duplicate
// elimination.
type Project struct {
	In   Op
	Vars []Var
}

func (o *Project) Schema() []Var { return append([]Var{}, o.Vars...) }
func (o *Project) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *Project) Name() string { return "project" }

// Join is ⋈_θ (paper operator 5). A nil Cond is the cartesian product the
// WHERE-clause translation falls back to.
type Join struct {
	L, R Op
	Cond *Cond
}

func (o *Join) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *Join) WithInputs(in ...Op) Op {
	mustArity(o, in, 2)
	c := *o
	c.L, c.R = in[0], in[1]
	return &c
}
func (o *Join) Name() string { return "join" }

// Side selects which branch's variables a semi-join keeps.
type Side int

// KeepLeft corresponds to the paper's rightSemijoin (π_V1 of the join);
// KeepRight to leftSemijoin (π_V2), the one written Lsemijoin in the figures.
const (
	KeepLeft Side = iota
	KeepRight
)

// SemiJoin is the semi-join pair of paper operator 6.
type SemiJoin struct {
	L, R Op
	Cond *Cond
	Keep Side
}

func (o *SemiJoin) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *SemiJoin) WithInputs(in ...Op) Op {
	mustArity(o, in, 2)
	c := *o
	c.L, c.R = in[0], in[1]
	return &c
}
func (o *SemiJoin) Name() string {
	if o.Keep == KeepRight {
		return "Lsemijoin"
	}
	return "Rsemijoin"
}

// ChildSpec describes the children argument of crElt and the arguments of
// cat: a variable, optionally wrapped in a singleton list constructor —
// list($x) in the paper's notation.
type ChildSpec struct {
	V    Var
	Wrap bool // true renders as list($x): the value is a single element
}

func (c ChildSpec) String() string {
	if c.Wrap {
		return "list(" + string(c.V) + ")"
	}
	return string(c.V)
}

// CrElt is crElt_{l, f(~g), $ch → $name} (paper operator 7): for each tuple
// it constructs the element l[children] with object id f(g-values) and binds
// it to Out.
type CrElt struct {
	In        Op
	Label     string
	SkolemFn  string // the skolem function symbol, e.g. "f"
	GroupVars []Var  // ~g: the skolem's arguments
	Children  ChildSpec
	Out       Var
}

func (o *CrElt) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *CrElt) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *CrElt) Name() string { return "crElt" }

// Cat is cat_{$x,$y → $z} (paper operator 8): list concatenation, with either
// argument optionally wrapped by a singleton list constructor.
type Cat struct {
	In   Op
	X, Y ChildSpec
	Out  Var
}

func (o *Cat) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *Cat) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *Cat) Name() string { return "cat" }

// TD is the tuple-destroy operator tD_{$A[, rootid]} (paper operator 9): it
// exports the list of values bound to V as a document whose root has label
// "list" and, when RootID is set, that object id. TD is the final operator
// of every XMAS plan.
type TD struct {
	In     Op
	V      Var
	RootID string // optional root object id, e.g. "rootv"
}

func (o *TD) Schema() []Var { return nil }
func (o *TD) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *TD) Name() string { return "tD" }

// GroupBy is groupBy_{gl → $name} (paper operator 10): partitions the input
// on the group-by list and binds Out to each partition (a set of binding
// lists). Presorted selects the stateless implementation of Table 1, which
// assumes the input arrives sorted on the group-by variables.
type GroupBy struct {
	In        Op
	Keys      []Var
	Out       Var
	Presorted bool
}

func (o *GroupBy) Schema() []Var { return append(append([]Var{}, o.Keys...), o.Out) }
func (o *GroupBy) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *GroupBy) Name() string { return "gBy" }

// Apply is apply_{p, $inp → $l} (paper operator 11): runs the nested Plan
// once per input tuple over the set of binding lists bound to InpVar, and
// binds the nested plan's result to Out. A nested plan ends in its own TD,
// so the bound result is a list element.
type Apply struct {
	In     Op
	Plan   Op // a nested plan containing a NestedSrc leaf
	InpVar Var
	Out    Var
}

func (o *Apply) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *Apply) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *Apply) Name() string { return "apply" }

// NestedSrc is nestedSrc_{$x} (paper operator 12): the placeholder leaf of a
// nested plan that stands for the set of binding lists bound to V in the
// current outer tuple. Vars records that set's schema so the nested plan can
// be analyzed statically.
type NestedSrc struct {
	V    Var
	Vars []Var
}

func (o *NestedSrc) Schema() []Var { return append([]Var{}, o.Vars...) }
func (o *NestedSrc) WithInputs(in ...Op) Op {
	mustArity(o, in, 0)
	c := *o
	return &c
}
func (o *NestedSrc) Name() string { return "nSrc" }

// ColSpec maps one SQL result column to the child element it reconstructs.
type ColSpec struct {
	Pos   int    // 0-based position in the SQL result row
	Label string // child element label, e.g. "id"
}

// VarMap tells the relational-query operator how to rebuild the element
// bound to V from a result row: an element labeled ElemLabel whose object id
// is derived from the key columns and whose children are the listed columns.
// A VarMap with no Cols binds V to the bare value of the single key column
// (used for value-level variables such as the $1/$2 join inputs).
type VarMap struct {
	V         Var
	ElemLabel string
	Cols      []ColSpec
	KeyCols   []int
}

// RelQuery is the relational source-access operator rQ_{s,q,m} (paper
// operator 13). It may only appear as a leaf. SQL is the query shipped to
// server Server; Maps is the map m from variables to result columns.
type RelQuery struct {
	Server string
	SQL    string
	Maps   []VarMap
}

func (o *RelQuery) Schema() []Var {
	out := make([]Var, len(o.Maps))
	for i, m := range o.Maps {
		out[i] = m.V
	}
	return out
}
func (o *RelQuery) WithInputs(in ...Op) Op {
	mustArity(o, in, 0)
	c := *o
	return &c
}
func (o *RelQuery) Name() string { return "rQ" }

// OrderBy sorts the input tuples on the object ids of the bindings of Vars
// (paper operator 14 orders by node ids, not values).
type OrderBy struct {
	In   Op
	Vars []Var
}

func (o *OrderBy) Schema() []Var { return schemaOf(o, Op.Schema) }
func (o *OrderBy) WithInputs(in ...Op) Op {
	mustArity(o, in, 1)
	c := *o
	c.In = in[0]
	return &c
}
func (o *OrderBy) Name() string { return "orderBy" }

// Empty is the unsatisfiable plan produced when rewriting proves a path
// condition can never hold (Table 2 rule with result ∅). It produces no
// tuples but retains a schema so enclosing operators stay well-formed.
type Empty struct {
	Vars []Var
}

func (o *Empty) Schema() []Var { return append([]Var{}, o.Vars...) }
func (o *Empty) WithInputs(in ...Op) Op {
	mustArity(o, in, 0)
	c := *o
	return &c
}
func (o *Empty) Name() string { return "empty" }

func mustArity(o Op, in []Op, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("xmas: %s.WithInputs: want %d inputs, got %d", o.Name(), n, len(in)))
	}
}

// InputsOf returns op's input plans, in fixed order, as the first n entries
// of an array: a walk that calls it at every node allocates nothing for it.
func InputsOf(op Op) (in [2]Op, n int) {
	switch o := op.(type) {
	case *Join:
		return [2]Op{o.L, o.R}, 2
	case *SemiJoin:
		return [2]Op{o.L, o.R}, 2
	case *MkSrc:
		if o.In == nil {
			return in, 0
		}
		return [2]Op{o.In}, 1
	case *GetD:
		return [2]Op{o.In}, 1
	case *Select:
		return [2]Op{o.In}, 1
	case *Project:
		return [2]Op{o.In}, 1
	case *CrElt:
		return [2]Op{o.In}, 1
	case *Cat:
		return [2]Op{o.In}, 1
	case *TD:
		return [2]Op{o.In}, 1
	case *GroupBy:
		return [2]Op{o.In}, 1
	case *Apply:
		return [2]Op{o.In}, 1
	case *OrderBy:
		return [2]Op{o.In}, 1
	}
	return in, 0
}

// WithInput returns a copy of op with input i (in InputsOf's order) replaced
// by in, sharing every other field. It is WithInputs for the common case of
// one changed input, without the argument slice.
func WithInput(op Op, i int, in Op) Op {
	switch o := op.(type) {
	case *Join:
		c := *o
		if i == 0 {
			c.L = in
		} else {
			c.R = in
		}
		return &c
	case *SemiJoin:
		c := *o
		if i == 0 {
			c.L = in
		} else {
			c.R = in
		}
		return &c
	case *MkSrc:
		c := *o
		c.In = in
		return &c
	case *GetD:
		c := *o
		c.In = in
		return &c
	case *Select:
		c := *o
		c.In = in
		return &c
	case *Project:
		c := *o
		c.In = in
		return &c
	case *CrElt:
		c := *o
		c.In = in
		return &c
	case *Cat:
		c := *o
		c.In = in
		return &c
	case *TD:
		c := *o
		c.In = in
		return &c
	case *GroupBy:
		c := *o
		c.In = in
		return &c
	case *Apply:
		c := *o
		c.In = in
		return &c
	case *OrderBy:
		c := *o
		c.In = in
		return &c
	}
	panic(fmt.Sprintf("xmas: %s.WithInput: no input %d", op.Name(), i))
}

// MapInputs returns op with f applied to each input and then, for an apply,
// to its nested plan. When f returns every one of them unchanged, op itself
// is returned: a transformation built on MapInputs copies only the path to
// what it changed and shares the rest.
func MapInputs(op Op, f func(Op) Op) Op {
	ins, n := InputsOf(op)
	changed := false
	for i := 0; i < n; i++ {
		if in := f(ins[i]); in != ins[i] {
			ins[i], changed = in, true
		}
	}
	a, isApply := op.(*Apply)
	var plan Op
	if isApply {
		plan = f(a.Plan)
		changed = changed || plan != a.Plan
	}
	if !changed {
		return op
	}
	var out Op
	if n == 1 {
		out = WithInput(op, 0, ins[0])
	} else {
		out = op.WithInputs(append([]Op(nil), ins[:n]...)...)
	}
	if isApply {
		out.(*Apply).Plan = plan // out is the copy just made
	}
	return out
}

// Schemas memoizes Op.Schema by node identity. Op.Schema derives a node's
// schema from its inputs' on every call; since plans are immutable and the
// plans of one rewrite share their untouched subtrees, a Schemas computes
// each node's schema once for all of them. The returned slices are shared:
// callers must not modify them. A Schemas is not safe for concurrent use.
type Schemas map[Op][]Var

// Of returns op's schema.
func (s Schemas) Of(op Op) []Var {
	if vs, ok := s[op]; ok {
		return vs
	}
	vs := schemaOf(op, s.Of)
	s[op] = vs
	return vs
}
