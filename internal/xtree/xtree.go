// Package xtree implements the labeled ordered tree abstraction of XML used
// throughout MIX (paper Section 2, "Data Model").
//
// A tree is a vertex with an id drawn from the set O of object ids, a label
// drawn from the set D of constants, and an ordered list of child trees. A
// leaf's label doubles as its value: the XML fragment <id>XYZ</id> is the
// two-node tree id[XYZ] where the inner node XYZ is a leaf whose label is the
// string "XYZ".
//
// Object ids may be random surrogates or carry semantic meaning; the
// relational wrapper, for example, derives tuple object ids from the tuple
// keys (paper Figure 2), and crElt derives constructed ids from skolem
// functions over group-by variables (paper Section 3, operator 7).
package xtree

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// ID identifies a vertex. By convention ids are written with a leading
// ampersand, e.g. "&XYZ123" or "&root1", mirroring the paper's notation.
type ID string

// Node is a vertex of a labeled ordered tree. A Node with no children is a
// leaf and its Label is its value. Children order is significant.
type Node struct {
	ID       ID
	Label    string
	Children []*Node
}

// NewElem builds an interior node with the given id, label and children.
func NewElem(id ID, label string, children ...*Node) *Node {
	return &Node{ID: id, Label: label, Children: children}
}

// NewLeaf builds a leaf node; its label is its value.
func NewLeaf(id ID, value string) *Node {
	return &Node{ID: id, Label: value}
}

// Text builds an id-less leaf holding value. Wrappers and constructors use it
// for character content whose identity never matters.
func Text(value string) *Node { return &Node{Label: value} }

// IsLeaf reports whether n has no children, i.e. whether its label is a value.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Value returns the value of a leaf node. For non-leaves it returns "", false
// (the paper's fv command returns ⊥ on non-leaves).
func (n *Node) Value() (string, bool) {
	if n == nil || !n.IsLeaf() {
		return "", false
	}
	return n.Label, true
}

// Atom returns the comparable atomic value of n, used by selection and join
// predicates. A leaf atomizes to its own label; an element with exactly one
// child that is a leaf atomizes to that child's label (this is the effect of
// XQuery's data() on wrapper-produced column elements such as <id>XYZ</id>).
// Any other shape has no atomic value.
func (n *Node) Atom() (string, bool) {
	if n == nil {
		return "", false
	}
	if n.IsLeaf() {
		return n.Label, true
	}
	if len(n.Children) == 1 && n.Children[0].IsLeaf() {
		return n.Children[0].Label, true
	}
	return "", false
}

// FirstChild returns the first child of n, or nil if n is a leaf. It is the
// d (down) navigation primitive of Section 2.
func (n *Node) FirstChild() *Node {
	if n == nil || len(n.Children) == 0 {
		return nil
	}
	return n.Children[0]
}

// ChildIndex returns the index of child c under n, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, k := range n.Children {
		if k == c {
			return i
		}
	}
	return -1
}

// Append adds children to n and returns n for chaining.
func (n *Node) Append(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// Clone returns a deep copy of the tree rooted at n.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{ID: n.ID, Label: n.Label}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, k := range n.Children {
			c.Children[i] = k.Clone()
		}
	}
	return c
}

// Equal reports deep equality of two trees including ids.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.ID != b.ID || a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// EqualShape reports deep equality of labels and structure, ignoring ids.
// Golden tests use it when surrogate ids are nondeterministic.
func EqualShape(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Label != b.Label || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !EqualShape(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits every node of the tree in document (pre-) order. If fn returns
// false the subtree below the node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Size returns the number of nodes in the tree.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	total := 0
	n.Walk(func(*Node) bool { total++; return true })
	return total
}

// Depth returns the height of the tree (a single node has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	max := 0
	for _, c := range n.Children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}

// Find returns the first node in document order whose label matches, or nil.
func (n *Node) Find(label string) *Node {
	var found *Node
	n.Walk(func(x *Node) bool {
		if found != nil {
			return false
		}
		if x.Label == label {
			found = x
			return false
		}
		return true
	})
	return found
}

// FindAll returns every node in document order whose label matches.
func (n *Node) FindAll(label string) []*Node {
	var out []*Node
	n.Walk(func(x *Node) bool {
		if x.Label == label {
			out = append(out, x)
		}
		return true
	})
	return out
}

// String renders the tree in the compact label[child,...] notation the paper
// uses, e.g. customer[id[XYZ], name[XYZInc.]]. Ids are omitted.
func (n *Node) String() string {
	var b strings.Builder
	n.writeCompact(&b)
	return b.String()
}

func (n *Node) writeCompact(b *strings.Builder) {
	if n == nil {
		b.WriteString("⊥")
		return
	}
	b.WriteString(n.Label)
	if n.IsLeaf() {
		return
	}
	b.WriteByte('[')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		c.writeCompact(b)
	}
	b.WriteByte(']')
}

// Pretty renders the tree with one node per line, indented, including ids —
// the format used by cmd/mixql and the golden tests.
func (n *Node) Pretty() string {
	var b strings.Builder
	n.writePretty(&b, 0)
	return b.String()
}

func (n *Node) writePretty(b *strings.Builder, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	if n.ID != "" {
		fmt.Fprintf(b, "%s ", n.ID)
	}
	b.WriteString(n.Label)
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.writePretty(b, depth+1)
	}
}

// Tree encoding: the compact form in which a subtree crosses the wire. Nodes
// come in preorder; each is a kind byte and its label as a uvarint length and
// bytes, and an element's children follow it, closed by TreeEnd. An element
// has at least one child: a childless node is a leaf. Ids are not encoded.
const (
	TreeEnd byte = iota
	TreeLeaf
	TreeElem
)

// AppendTreeNode appends a node's kind and label in the tree encoding.
func AppendTreeNode[L string | []byte](b []byte, kind byte, label L) []byte {
	b = binary.AppendUvarint(append(b, kind), uint64(len(label)))
	return append(b, label...)
}
