// Package engine evaluates XMAS plans with navigation-driven lazy evaluation
// (paper Section 4): every operator is compiled to a memoizing cursor, and no
// source data is pulled until a client navigation (or a downstream operator
// acting on behalf of one) demands it. The result of a plan is a virtual
// document whose children materialize as they are visited.
//
// Elements constructed by crElt carry semantically meaningful object ids of
// the form &($V,f(args)) — the variable they were bound to plus the skolem of
// their group-by values (paper Figure 7) — and a provenance record, which is
// exactly the information decontextualization (Section 5) decodes.
package engine

import (
	"strings"
	"sync"

	"mix/internal/xmas"
	"mix/internal/xtree"
)

// Provenance records how an element relates to the plan that produced it:
// the variable it was bound to before the tD operator, and the group-by
// fixations its id encodes (variable → object id / atomic value).
type Provenance struct {
	Var   xmas.Var
	Fixed []Fixation
}

// Fixation pins one variable to the id (or atomic value) of its binding.
type Fixation struct {
	Var xmas.Var
	ID  string // object id when the binding has one, else its atomic value
}

// Elem is one element of a (possibly virtual) result document. Elements
// either mirror a source node, stand for a tuple of a relational result row,
// or were constructed by crElt; all expose their children through a
// memoizing lazy list.
type Elem struct {
	ID    string
	Label string
	Prov  *Provenance

	leaf bool
	kids *LazyList[*Elem]
	// src is the source tree node this element mirrors (nil for constructed
	// elements and virtual list nodes). The dataguide path index is keyed by
	// node pointer, so only elements that remember their node can be probed.
	src *xtree.Node
	// body is the wrapper tuple of a relational result row this element
	// stands for; its children are built from the row on first access.
	body *rowBody
}

// NewLeaf builds a leaf element (its label is its value).
func NewLeaf(id, value string) *Elem {
	return &Elem{ID: id, Label: value, leaf: true}
}

// NewElem builds an interior element over a lazy child list.
func NewElem(id, label string, kids *LazyList[*Elem]) *Elem {
	return &Elem{ID: id, Label: label, kids: kids}
}

// FromNode wraps a source tree node. The wrapping is lazy but cheap: the
// node is already in mediator memory (its source shipped it), so child
// wrappers are created on first access only to preserve identity of repeated
// navigations.
func FromNode(n *xtree.Node) *Elem {
	if n.IsLeaf() {
		return &Elem{ID: string(n.ID), Label: n.Label, leaf: true, src: n}
	}
	children := n.Children
	i := 0
	return &Elem{
		ID:    string(n.ID),
		Label: n.Label,
		src:   n,
		kids: NewLazyList(func() (*Elem, bool) {
			if i >= len(children) {
				return nil, false
			}
			e := FromNode(children[i])
			i++
			return e, true
		}),
	}
}

// IsLeaf reports whether the element is a leaf (its label is its value).
func (e *Elem) IsLeaf() bool { return e == nil || e.leaf }

// Value returns the value of a leaf element.
func (e *Elem) Value() (string, bool) {
	if e == nil || !e.leaf {
		return "", false
	}
	return e.Label, true
}

// Kids returns the element's lazy child list (nil for leaves).
func (e *Elem) Kids() *LazyList[*Elem] {
	switch {
	case e == nil || e.leaf:
		return nil
	case e.body != nil:
		return e.body.children()
	}
	return e.kids
}

// Atom returns the comparable atomic value, mirroring xtree.Node.Atom: a
// leaf's own label, or the label of a sole leaf child.
func (e *Elem) Atom() (string, bool) {
	switch {
	case e == nil:
		return "", false
	case e.leaf:
		return e.Label, true
	case e.body != nil:
		return "", false // a wrapper tuple's children are its columns, never leaves
	}
	first, ok := e.kids.Get(0)
	if !ok || !first.leaf {
		return "", false
	}
	if _, second := e.kids.Get(1); second {
		return "", false
	}
	return first.Label, true
}

// WithProv returns a shallow copy of e stamped with provenance (sharing the
// child list, so laziness and memoization are preserved).
func (e *Elem) WithProv(p *Provenance) *Elem {
	if e == nil {
		return nil
	}
	c := *e
	c.Prov = p
	return &c
}

// Materialize forces the whole subtree into an xtree.Node. It is the
// "obvious evaluation strategy" the paper rejects for in-place queries —
// kept as the comparison baseline (experiment E12) and for printing results.
func (e *Elem) Materialize() *xtree.Node {
	if e == nil {
		return nil
	}
	n := &xtree.Node{ID: xtree.ID(e.ID), Label: e.Label}
	if e.leaf {
		return n
	}
	kids := e.Kids()
	for i := 0; ; i++ {
		k, ok := kids.Get(i)
		if !ok {
			break
		}
		n.Children = append(n.Children, k.Materialize())
	}
	return n
}

// AppendTree appends the subtree in the tree encoding (xtree.TreeElem),
// forcing it as Materialize does. A relational row whose column elements
// nobody has asked for is written straight from the row.
func (e *Elem) AppendTree(b []byte) []byte {
	if e.leaf {
		return xtree.AppendTreeNode(b, xtree.TreeLeaf, e.Label)
	}
	at, n := len(b), 0
	b = xtree.AppendTreeNode(b, xtree.TreeElem, e.Label)
	if e.body != nil && e.body.kids.Load() == nil {
		b, n = e.body.appendColumns(b), len(e.body.spec.cols)
	} else {
		kids := e.Kids()
		for k, ok := kids.Get(0); ok; k, ok = kids.Get(n) {
			b, n = k.AppendTree(b), n+1
		}
	}
	if n == 0 {
		b[at] = xtree.TreeLeaf // a childless element is a leaf, as in Materialize
		return b
	}
	return append(b, xtree.TreeEnd)
}

// String forces and renders the subtree compactly (tests, diagnostics).
func (e *Elem) String() string {
	if e == nil {
		return "⊥"
	}
	return e.Materialize().String()
}

// ---- lazy containers ----

// LazyList is a memoizing, lazily produced list. Get(i) forces production up
// to index i exactly once; repeated navigation never re-pulls from sources.
// Forcing is serialized by a per-list mutex: under parallel execution an
// exchange producer can be forcing a list (e.g. a binding's child list feeding
// a path match) while the consumer navigates the same elements from a
// delivered tuple. The producer function runs with the lock held, which is
// safe because producers only ever force *other* lists, never their own.
type LazyList[T any] struct {
	mu    sync.Mutex
	items []T
	next  func() (T, bool) // nil once exhausted
}

// NewLazyList builds a lazy list from a producer. The producer is called
// until it returns ok=false and never after that.
func NewLazyList[T any](next func() (T, bool)) *LazyList[T] {
	return &LazyList[T]{next: next}
}

// ListOf builds an already-materialized lazy list.
func ListOf[T any](items ...T) *LazyList[T] {
	return &LazyList[T]{items: items}
}

// Get forces elements up to index i and returns the i-th; no index is below 0.
func (l *LazyList[T]) Get(i int) (T, bool) {
	var zero T
	if l == nil || i < 0 {
		return zero, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.items) <= i && l.next != nil {
		item, ok := l.next()
		if !ok {
			l.next = nil
			break
		}
		l.items = append(l.items, item)
	}
	if i < len(l.items) {
		return l.items[i], true
	}
	return zero, false
}

// Len forces the whole list and returns its length.
func (l *LazyList[T]) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.next != nil {
		item, ok := l.next()
		if !ok {
			l.next = nil
			break
		}
		l.items = append(l.items, item)
	}
	return len(l.items)
}

// Forced returns how many elements have been produced so far without forcing
// more (lazy-evaluation experiments assert on it).
func (l *LazyList[T]) Forced() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Concat chains lazy lists without forcing them.
func Concat[T any](lists ...*LazyList[T]) *LazyList[T] {
	li, idx := 0, 0
	return NewLazyList(func() (T, bool) {
		var zero T
		for li < len(lists) {
			if v, ok := lists[li].Get(idx); ok {
				idx++
				return v, true
			}
			li++
			idx = 0
		}
		return zero, false
	})
}

// ---- values ----

// Value is what a variable can be bound to in a binding list: a single
// element, a list of elements, or a set of binding lists (paper Section 3).
type Value interface{ isValue() }

// NodeVal binds a single element.
type NodeVal struct{ E *Elem }

// ListVal binds a list of elements.
type ListVal struct{ L *LazyList[*Elem] }

// SetVal binds a set of binding lists (a group-by partition).
type SetVal struct {
	Schema []xmas.Var
	Tuples *LazyList[Tuple]
}

func (NodeVal) isValue() {}
func (ListVal) isValue() {}
func (SetVal) isValue()  {}

// nodeOf returns the element a value binds: a node's, or a row reference's,
// built on first need.
func nodeOf(v Value) (*Elem, bool) {
	switch x := v.(type) {
	case NodeVal:
		return x.E, true
	case *rowRef:
		return x.element(), true
	}
	return nil, false
}

// atomOf extracts the comparable atom of a value (nil for lists/sets).
func atomOf(v Value) (string, bool) {
	switch x := v.(type) {
	case NodeVal:
		return x.E.Atom()
	case *rowRef:
		return x.atom()
	}
	return "", false
}

// idOf extracts the object id of a value's element.
func idOf(v Value) (string, bool) {
	switch x := v.(type) {
	case NodeVal:
		if x.E == nil {
			return "", false
		}
		return x.E.ID, true
	case *rowRef:
		return x.id(), true
	}
	return "", false
}

// orderKey is the key OrderBy and hashing use: the element id when present,
// else the atom, else a forced string form.
func orderKey(v Value) string {
	switch x := v.(type) {
	case *rowRef:
		if id := x.id(); id != "" {
			return id
		}
		a, _ := x.atom()
		return a
	case NodeVal:
		if x.E == nil {
			return ""
		}
		if x.E.ID != "" {
			return x.E.ID
		}
		if a, ok := x.E.Atom(); ok {
			return a
		}
		return x.E.Label
	case ListVal:
		var b strings.Builder
		for i := 0; ; i++ {
			e, ok := x.L.Get(i)
			if !ok {
				break
			}
			b.WriteString(orderKey(NodeVal{E: e}))
			b.WriteByte('|')
		}
		return b.String()
	case SetVal:
		return "<set>"
	}
	return ""
}
