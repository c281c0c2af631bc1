package engine

import (
	"encoding/binary"
	"fmt"
	"strings"

	"mix/internal/xmas"
)

// Tuple is one binding list: a schema-shared slice of values.
type Tuple struct {
	schema []xmas.Var
	vals   []Value
}

// NewTuple builds a tuple over the given schema. len(vals) must equal
// len(schema).
func NewTuple(schema []xmas.Var, vals []Value) Tuple {
	if len(schema) != len(vals) {
		panic(fmt.Sprintf("engine: tuple arity mismatch: %d vars, %d values", len(schema), len(vals)))
	}
	return Tuple{schema: schema, vals: vals}
}

// Schema returns the tuple's variable list.
func (t Tuple) Schema() []xmas.Var { return t.schema }

// Get returns the value bound to v.
func (t Tuple) Get(v xmas.Var) (Value, bool) {
	for i, s := range t.schema {
		if s == v {
			return t.vals[i], true
		}
	}
	return nil, false
}

// MustGet returns the value bound to v, panicking on a plan-compilation bug
// (compiled plans are validated, so a missing variable is unreachable).
func (t Tuple) MustGet(v xmas.Var) Value {
	val, ok := t.Get(v)
	if !ok {
		panic(fmt.Sprintf("engine: variable %s not bound in schema %v", v, t.schema))
	}
	return val
}

// Extend returns a new tuple over schema with the extra binding appended.
// schema must be t's schema plus v.
func (t Tuple) Extend(schema []xmas.Var, val Value) Tuple {
	vals := make([]Value, 0, len(t.vals)+1)
	vals = append(vals, t.vals...)
	vals = append(vals, val)
	return Tuple{schema: schema, vals: vals}
}

// Merge concatenates two tuples (the b1 + b2 of the paper's join).
func (t Tuple) Merge(schema []xmas.Var, other Tuple) Tuple {
	vals := make([]Value, 0, len(t.vals)+len(other.vals))
	vals = append(vals, t.vals...)
	vals = append(vals, other.vals...)
	return Tuple{schema: schema, vals: vals}
}

// Project returns the tuple narrowed to vars (which must all be bound).
func (t Tuple) Project(vars []xmas.Var) Tuple {
	vals := make([]Value, len(vars))
	for i, v := range vars {
		vals[i] = t.MustGet(v)
	}
	return Tuple{schema: vars, vals: vals}
}

// Key renders a hashable identity over the given variables: each value's
// orderKey, prefixed by its length, so that no two different lists of keys
// render alike — ("a\x00", "b") and ("a", "\x00b") included.
func (t Tuple) Key(vars []xmas.Var) string {
	var b []byte
	for _, v := range vars {
		k := orderKey(t.MustGet(v))
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
	}
	return string(b)
}

// String renders the tuple for diagnostics, forcing node values only.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range t.schema {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=", v)
		switch x := t.vals[i].(type) {
		case *rowRef:
			b.WriteString(orderKey(x))
		case NodeVal:
			if x.E == nil {
				b.WriteString("⊥")
			} else if x.E.ID != "" {
				b.WriteString(x.E.ID)
			} else {
				b.WriteString(x.E.Label)
			}
		case ListVal:
			fmt.Fprintf(&b, "list(%d forced)", x.L.Forced())
		case SetVal:
			fmt.Fprintf(&b, "set(%d forced)", x.Tuples.Forced())
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Cursor produces tuples on demand.
type Cursor interface {
	// Next returns the next tuple; ok=false at end of stream. A non-nil
	// error is terminal.
	Next() (t Tuple, ok bool, err error)
}

// cursorFunc adapts a closure to Cursor.
type cursorFunc func() (Tuple, bool, error)

func (f cursorFunc) Next() (Tuple, bool, error) { return f() }

// emptyCursor yields nothing.
type emptyCursor struct{}

func (emptyCursor) Next() (Tuple, bool, error) { return Tuple{}, false, nil }

// sliceCursor replays a materialized tuple slice.
type sliceCursor struct {
	tuples []Tuple
	pos    int
}

func (s *sliceCursor) Next() (Tuple, bool, error) {
	if s.pos >= len(s.tuples) {
		return Tuple{}, false, nil
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true, nil
}

// drain materializes a cursor (used by blocking operators: stateful group-by,
// sorts, join build sides).
func drain(c Cursor) ([]Tuple, error) {
	var out []Tuple
	for {
		t, ok, err := c.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

// lazySetCursor iterates a SetVal's memoized tuple list from the start.
func lazySetCursor(s SetVal) Cursor {
	i := 0
	return cursorFunc(func() (Tuple, bool, error) {
		t, ok := s.Tuples.Get(i)
		if !ok {
			return Tuple{}, false, nil
		}
		i++
		return t, true, nil
	})
}
