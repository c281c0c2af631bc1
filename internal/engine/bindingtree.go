package engine

import (
	"fmt"

	"mix/internal/xtree"
)

// BindingTree renders a set of binding lists in the tree representation of
// paper Figure 5: a root labeled "list" with one "binding" child per tuple;
// each binding has one child per variable, whose single child is the bound
// value — a leaf for single elements, a "list" subtree for list values, and
// a nested binding tree for partition sets.
//
// The engine's navigation works directly on cursors; this materialized view
// exists for the operators' exported-table semantics (paper Section 4: "the
// output of each operator is also viewed as a tree"), for diagnostics, and
// for the Figure 5 golden test.
func BindingTree(s SetVal) *xtree.Node {
	root := &xtree.Node{Label: "list"}
	for i := 0; ; i++ {
		t, ok := s.Tuples.Get(i)
		if !ok {
			break
		}
		root.Children = append(root.Children, bindingNode(t, i))
	}
	return root
}

// BindingTreeOf wraps a materialized tuple slice (tests, diagnostics).
func BindingTreeOf(schema []string, tuples []Tuple) *xtree.Node {
	root := &xtree.Node{Label: "list"}
	for i, t := range tuples {
		root.Children = append(root.Children, bindingNode(t, i))
	}
	return root
}

func bindingNode(t Tuple, ordinal int) *xtree.Node {
	b := &xtree.Node{ID: xtree.ID(fmt.Sprintf("&b%d", ordinal+1)), Label: "binding"}
	for _, v := range t.Schema() {
		varNode := &xtree.Node{Label: string(v)}
		varNode.Children = append(varNode.Children, valueNode(t.MustGet(v)))
		b.Children = append(b.Children, varNode)
	}
	return b
}

func valueNode(v Value) *xtree.Node {
	switch x := v.(type) {
	case NodeVal, *rowRef:
		e, _ := nodeOf(x)
		if e == nil {
			return xtree.Text("⊥")
		}
		return e.Materialize()
	case ListVal:
		n := &xtree.Node{Label: "list"}
		for i := 0; ; i++ {
			e, ok := x.L.Get(i)
			if !ok {
				break
			}
			n.Children = append(n.Children, e.Materialize())
		}
		return n
	case SetVal:
		set := BindingTree(x)
		set.Label = "set"
		return set
	}
	return xtree.Text("⊥")
}
