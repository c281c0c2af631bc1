package engine

import (
	"errors"
	"strings"
	"testing"

	"mix/internal/source"
	"mix/internal/xmas"
)

// orderedInput builds a cursor of tuples [$G, $V] sorted on $G, simulating
// the presorted input of paper Table 1. pulls counts upstream pulls.
func orderedInput(pairs [][2]string, pulls *int) Cursor {
	schema := []xmas.Var{"$G", "$V"}
	i := 0
	return cursorFunc(func() (Tuple, bool, error) {
		if i >= len(pairs) {
			return Tuple{}, false, nil
		}
		p := pairs[i]
		i++
		*pulls++
		return NewTuple(schema, []Value{
			NodeVal{E: NewLeaf("&g"+p[0], p[0])},
			NodeVal{E: NewLeaf("&v"+p[1], p[1])},
		}), true, nil
	})
}

func presorted(in Cursor) *presortedGroupCursor {
	return &presortedGroupCursor{
		in:        in,
		keys:      []xmas.Var{"$G"},
		inSchema:  []xmas.Var{"$G", "$V"},
		outSchema: []xmas.Var{"$G", "$X"},
	}
}

// TestTable1GroupByNavigation replays the navigation semantics of paper
// Table 1: the presorted stateless gBy streams one group at a time, the
// partition delivers the tuples of the group, and advancing to the next
// group (the r(⟨binding⟩) loop) works whether or not the partition was
// consumed.
func TestTable1GroupByNavigation(t *testing.T) {
	pulls := 0
	g := presorted(orderedInput([][2]string{
		{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"},
	}, &pulls))

	// getRoot + d: first group.
	t1, ok, err := g.Next()
	if err != nil || !ok {
		t.Fatalf("first group: %v %v", ok, err)
	}
	if key, _ := atomOf(t1.MustGet("$G")); key != "a" {
		t.Fatalf("first group key = %q", key)
	}
	// Only the group's first tuple has been pulled so far.
	if pulls != 1 {
		t.Fatalf("pulls after first group header = %d", pulls)
	}
	// Navigate inside the partition (d on the group value).
	part := t1.MustGet("$X").(SetVal)
	p1, ok := part.Tuples.Get(0)
	if !ok {
		t.Fatal("partition first tuple")
	}
	if v, _ := atomOf(p1.MustGet("$V")); v != "1" {
		t.Fatalf("partition tuple 1 = %q", v)
	}
	p2, ok := part.Tuples.Get(1)
	if !ok {
		t.Fatal("partition second tuple")
	}
	if v, _ := atomOf(p2.MustGet("$V")); v != "2" {
		t.Fatalf("partition tuple 2 = %q", v)
	}
	// r past the end of the group returns ⊥ (Table 1's in-binding r).
	if _, ok := part.Tuples.Get(2); ok {
		t.Fatal("partition must end at the group boundary")
	}

	// r on the binding: next group. Table 1's implementation repeats
	// r(b_s) until the key changes — the pending tuple was already read.
	t2, ok, err := g.Next()
	if err != nil || !ok {
		t.Fatal("second group")
	}
	if key, _ := atomOf(t2.MustGet("$G")); key != "b" {
		t.Fatalf("second group key = %q", key)
	}

	// Skip the b partition entirely; the c group must still arrive.
	t3, ok, err := g.Next()
	if err != nil || !ok {
		t.Fatal("third group")
	}
	if key, _ := atomOf(t3.MustGet("$G")); key != "c" {
		t.Fatalf("third group key = %q", key)
	}
	part3 := t3.MustGet("$X").(SetVal)
	if part3.Tuples.Len() != 2 {
		t.Fatalf("third partition size = %d", part3.Tuples.Len())
	}

	// End of stream.
	if _, ok, _ := g.Next(); ok {
		t.Fatal("stream must end after the last group")
	}
	if pulls != 5 {
		t.Fatalf("total pulls = %d, want 5", pulls)
	}
}

func TestPresortedGroupBySingleGroup(t *testing.T) {
	pulls := 0
	g := presorted(orderedInput([][2]string{{"a", "1"}, {"a", "2"}}, &pulls))
	t1, ok, _ := g.Next()
	if !ok {
		t.Fatal("group")
	}
	if t1.MustGet("$X").(SetVal).Tuples.Len() != 2 {
		t.Fatal("partition size")
	}
	if _, ok, _ := g.Next(); ok {
		t.Fatal("single group stream must end")
	}
}

func TestPresortedGroupByEmpty(t *testing.T) {
	pulls := 0
	g := presorted(orderedInput(nil, &pulls))
	if _, ok, _ := g.Next(); ok {
		t.Fatal("empty input must produce no groups")
	}
}

// TestStatefulGroupByUnsortedInput: the buffered gBy groups unsorted input
// correctly (first-appearance order), which the presorted one cannot.
func TestStatefulGroupByUnsortedInput(t *testing.T) {
	pairs := [][2]string{{"b", "1"}, {"a", "2"}, {"b", "3"}}
	pulls := 0
	op := &xmas.GroupBy{
		In:   nil, // compiled below by hand
		Keys: []xmas.Var{"$G"},
		Out:  "$X",
	}
	_ = op
	// Drive the compiled stateful group-by through a custom input by
	// wiring the cursor directly.
	in := orderedInput(pairs, &pulls)
	rows, err := drain(in)
	if err != nil {
		t.Fatal(err)
	}
	index := map[string][]Tuple{}
	var order []string
	for _, tp := range rows {
		k := tp.Key([]xmas.Var{"$G"})
		if _, seen := index[k]; !seen {
			order = append(order, k)
		}
		index[k] = append(index[k], tp)
	}
	if len(order) != 2 {
		t.Fatalf("groups = %d", len(order))
	}
	if len(index[order[0]]) != 2 || len(index[order[1]]) != 1 {
		t.Fatalf("group sizes: %v", index)
	}
}

// TestFigure5BindingTree renders a set of binding lists in the paper's
// Figure 5 tree representation.
func TestFigure5BindingTree(t *testing.T) {
	// B = {[$A=a1, $B=list[e1,e2], $C={[$D=d11],[$D=d12]}],
	//      [$A=a2, $B=list[f1,f2,f3], $C={[$D=d21]}]}
	inner := func(vals ...string) SetVal {
		var tuples []Tuple
		for _, v := range vals {
			tuples = append(tuples, NewTuple([]xmas.Var{"$D"},
				[]Value{NodeVal{E: NewLeaf("", v)}}))
		}
		return SetVal{Schema: []xmas.Var{"$D"}, Tuples: ListOf(tuples...)}
	}
	list := func(vals ...string) Value {
		var es []*Elem
		for _, v := range vals {
			es = append(es, NewLeaf("", v))
		}
		return ListVal{L: ListOf(es...)}
	}
	schema := []xmas.Var{"$A", "$B", "$C"}
	b := SetVal{Schema: schema, Tuples: ListOf(
		NewTuple(schema, []Value{NodeVal{E: NewLeaf("", "a1")}, list("e1", "e2"), inner("d11", "d12")}),
		NewTuple(schema, []Value{NodeVal{E: NewLeaf("", "a2")}, list("f1", "f2", "f3"), inner("d21")}),
	)}
	tree := BindingTree(b)
	got := tree.String()
	want := "list[" +
		"binding[$A[a1], $B[list[e1, e2]], $C[set[binding[$D[d11]], binding[$D[d12]]]]], " +
		"binding[$A[a2], $B[list[f1, f2, f3]], $C[set[binding[$D[d21]]]]]]"
	if got != want {
		t.Fatalf("Figure 5 tree:\n got %s\nwant %s", got, want)
	}
	if !strings.HasPrefix(string(tree.Children[0].ID), "&b") {
		t.Fatalf("binding node ids: %q", tree.Children[0].ID)
	}
}

// TestPresortedGroupByDeliversThenFails: the input — in a pushed plan the rQ
// cursor of a source — fails while a partition is open. A partition is a
// list, so the failure cannot surface where it happens; the groups and the
// partition tuples delivered so far stand, and the next Next returns the
// typed error instead of a clean end. Whether the cursor itself forced the
// partition or the consumer navigated into it makes no difference.
func TestPresortedGroupByDeliversThenFails(t *testing.T) {
	lost := &source.SourceUnavailableError{Source: "&db1", Err: errors.New("connection reset")}
	failing := func() Cursor {
		pulls := 0
		in := orderedInput([][2]string{{"a", "1"}, {"a", "2"}, {"b", "3"}}, &pulls)
		return cursorFunc(func() (Tuple, bool, error) {
			if pulls == 3 {
				return Tuple{}, false, lost
			}
			return in.Next()
		})
	}
	wantErr := func(g Cursor, when string) {
		t.Helper()
		for i := 0; i < 2; i++ { // and it stays an error: never a clean end after it
			_, ok, err := g.Next()
			var unavailable *source.SourceUnavailableError
			if ok || !errors.As(err, &unavailable) || unavailable.Source != "&db1" {
				t.Fatalf("%s: Next = (%v, %v), want the source's typed error", when, ok, err)
			}
		}
	}
	group := func(g Cursor, key string) SetVal {
		t.Helper()
		tup, ok, err := g.Next()
		if !ok || err != nil {
			t.Fatalf("group %s: Next = (%v, %v)", key, ok, err)
		}
		if got, _ := atomOf(tup.MustGet("$G")); got != key {
			t.Fatalf("group key = %q, want %q", got, key)
		}
		return tup.MustGet("$X").(SetVal)
	}

	// The cursor forces b's partition on the way to the next group.
	g := presorted(failing())
	a, b := group(g, "a"), group(g, "b")
	wantErr(g, "forcing the open partition")
	if a.Tuples.Len() != 2 || b.Tuples.Len() != 1 {
		t.Fatalf("partitions hold %d and %d tuples, want 2 and 1", a.Tuples.Len(), b.Tuples.Len())
	}

	// The consumer navigates b's partition to its end first.
	g = presorted(failing())
	group(g, "a")
	b = group(g, "b")
	if _, ok := b.Tuples.Get(0); !ok {
		t.Fatal("b's first tuple was delivered with its group")
	}
	if _, ok := b.Tuples.Get(1); ok {
		t.Fatal("b has one tuple")
	}
	wantErr(g, "after navigating into the failure")
}
