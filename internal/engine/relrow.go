package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// This file is rQ, the relational source-access operator, as a batch
// producer. A binding it makes is a reference to the result row and to the
// part of it the variable's map names — a wrapper tuple, one of its columns,
// or a bare value (rowRef) — and nothing is built from the row until an
// operator or a navigation looks. Comparisons and join keys read the row's
// Datums; a path step into a tuple yields references to its columns; a
// tuple's id is built the first time an operator needs it, the element a
// binding stands for the first time one is needed, and the tuple's children
// when navigation or a path step first reaches them — the id and children
// once per row, however many variables are bound to the tuple, with the
// wrapper's ids (&key, &key.col). This is the paper's lazy mediator applied
// to the wrapper: a tuple object nobody navigates is never constructed.

// specKind is the kind of element a row reference names.
type specKind uint8

const (
	specTuple  specKind = iota // id &key, one child element per column
	specColumn                 // id &key.label, the value as its only child
	specValue                  // a leaf with no id whose label is the value
)

// rowSpec is what one VarMap names in a result row.
type rowSpec struct {
	kind  specKind
	label string    // tuple: the element's label; column: the column's
	pos   int       // column, value: the datum's position in the row
	keys  []int     // tuple, column: the positions the id is made of
	slot  int       // tuple: the row's body slot, one per distinct tuple
	cols  []rowSpec // tuple: its columns, in child order
	leaf  *rowSpec  // column: its value, for a path step past it
}

// relShape is a relational query's maps compiled against its result rows.
type relShape struct {
	specs []*rowSpec // one per map, in schema order
	slots int        // distinct tuples a row can build
}

func newRelShape(maps []xmas.VarMap) *relShape {
	sh := &relShape{specs: make([]*rowSpec, len(maps))}
	var tuples []*rowSpec
	for i, m := range maps {
		switch {
		case len(m.Cols) == 0:
			pos := 0
			if len(m.KeyCols) > 0 {
				pos = m.KeyCols[0]
			}
			sh.specs[i] = &rowSpec{kind: specValue, pos: pos}
		case len(m.Cols) == 1 && m.Cols[0].Label == "":
			sh.specs[i] = columnSpec(m.ElemLabel, m.Cols[0].Pos, m.KeyCols)
		default:
			// $doc and $C, $doc2 and $O: every map over the same columns
			// shares one tuple, and so one body per row.
			for _, t := range tuples {
				if t.label == m.ElemLabel && slices.Equal(t.keys, m.KeyCols) && sameCols(t.cols, m.Cols) {
					sh.specs[i] = t
					break
				}
			}
			if sh.specs[i] == nil {
				t := &rowSpec{kind: specTuple, label: m.ElemLabel, keys: m.KeyCols, slot: len(tuples)}
				for _, c := range m.Cols {
					t.cols = append(t.cols, *columnSpec(c.Label, c.Pos, m.KeyCols))
				}
				tuples = append(tuples, t)
				sh.specs[i] = t
			}
		}
	}
	sh.slots = len(tuples)
	return sh
}

func columnSpec(label string, pos int, keys []int) *rowSpec {
	return &rowSpec{kind: specColumn, label: label, pos: pos, keys: keys, leaf: &rowSpec{kind: specValue, pos: pos}}
}

func sameCols(specs []rowSpec, cols []xmas.ColSpec) bool {
	return slices.EqualFunc(specs, cols, func(s rowSpec, c xmas.ColSpec) bool { return s.label == c.Label && s.pos == c.Pos })
}

// relRow is one result row and the tuples built from it.
type relRow struct {
	vals   []relstore.Datum
	bodies []atomic.Pointer[rowBody] // by rowSpec.slot, built on first need
}

// body returns the row's tuple of spec s, building its id the first time.
func (r *relRow) body(s *rowSpec) *rowBody {
	slot := &r.bodies[s.slot]
	if b := slot.Load(); b != nil {
		return b
	}
	var buf [32]byte
	b := &rowBody{row: r, spec: s, id: string(appendID(buf[:0], r.vals, s.keys))}
	if !slot.CompareAndSwap(nil, b) {
		return slot.Load()
	}
	return b
}

// rowBody is a wrapper tuple of a result row: its id, and its children once
// they are asked for. Every element of every variable bound to the tuple
// shares it.
type rowBody struct {
	row  *relRow
	spec *rowSpec
	id   string
	kids atomic.Pointer[LazyList[*Elem]]
}

// children builds the tuple's column elements — &key.col, labelled by the
// column, the value as only child — on first use.
func (b *rowBody) children() *LazyList[*Elem] {
	if l := b.kids.Load(); l != nil {
		return l
	}
	items := make([]*Elem, len(b.spec.cols))
	for i, c := range b.spec.cols {
		items[i] = NewElem(b.id+"."+c.label, c.label, ListOf(NewLeaf("", b.row.vals[c.pos].String())))
	}
	l := ListOf(items...)
	if !b.kids.CompareAndSwap(nil, l) {
		return b.kids.Load()
	}
	return l
}

// appendColumns writes the tuple's column elements in the tree encoding
// without building them.
func (b *rowBody) appendColumns(dst []byte) []byte {
	var buf [32]byte
	for _, c := range b.spec.cols {
		dst = xtree.AppendTreeNode(dst, xtree.TreeElem, c.label)
		dst = xtree.AppendTreeNode(dst, xtree.TreeLeaf, b.row.vals[c.pos].AppendText(buf[:0]))
		dst = append(dst, xtree.TreeEnd)
	}
	return dst
}

// rowRef binds variable v to the element spec names in a result row.
type rowRef struct {
	row  *relRow
	spec *rowSpec
	v    xmas.Var
	elem atomic.Pointer[Elem] // built on first need
}

func (*rowRef) isValue() {}

// datum is the value a column or value reference reads.
func (r *rowRef) datum() relstore.Datum { return r.row.vals[r.spec.pos] }

// atom is the element's comparable atom: the value, for a column (its only
// child is the value's leaf) and for a value; a tuple has none.
func (r *rowRef) atom() (string, bool) {
	if r.spec.kind == specTuple {
		return "", false
	}
	return r.datum().String(), true
}

// id is the element's object id.
func (r *rowRef) id() string {
	switch s := r.spec; s.kind {
	case specTuple:
		return r.row.body(s).id
	case specColumn:
		if e := r.elem.Load(); e != nil {
			return e.ID
		}
		return r.columnID()
	}
	return ""
}

// columnID is a column's id, &key.label.
func (r *rowRef) columnID() string {
	var buf [32]byte
	return string(append(append(appendID(buf[:0], r.row.vals, r.spec.keys), '.'), r.spec.label...))
}

// element returns the element r stands for, stamped with its variable,
// building it on the first call.
func (r *rowRef) element() *Elem {
	if e := r.elem.Load(); e != nil {
		return e
	}
	var e *Elem
	switch s := r.spec; s.kind {
	case specTuple:
		b := r.row.body(s)
		e = &Elem{ID: b.id, Label: s.label, body: b}
	case specColumn:
		e = NewElem(r.columnID(), s.label, ListOf(NewLeaf("", r.datum().String())))
	default:
		e = NewLeaf("", r.datum().String())
	}
	e.Prov = &Provenance{Var: r.v, Fixed: []Fixation{{Var: r.v, ID: e.ID}}}
	if !r.elem.CompareAndSwap(nil, e) {
		return r.elem.Load()
	}
	return e
}

// appendID appends the wrapper's tuple id: & and the key values, joined
// with dots (wrapper.TupleOID).
func appendID(b []byte, vals []relstore.Datum, keys []int) []byte {
	b = append(b, '&')
	for i, k := range keys {
		if i > 0 {
			b = append(b, '.')
		}
		b = vals[k].AppendText(b)
	}
	return b
}

// rowSteps walks a path from a tuple reference the way pathStream walks the
// tuple's element — the tuple itself, its columns, their values, in document
// order — reading the row instead of building the element. The path includes
// the tuple's own label.
type rowSteps struct {
	r    *rowRef
	path xmas.Path
	col  int // the next column to try
	done bool
}

// next returns what the next match is in the row.
func (w *rowSteps) next() (*rowSpec, bool) {
	s, p := w.r.spec, w.path
	if w.done || len(p) > 3 || !xmas.StepMatches(p[0], s.label) {
		return nil, false
	}
	if len(p) == 1 {
		w.done = true
		return s, true
	}
	for w.col < len(s.cols) {
		c := &s.cols[w.col]
		w.col++
		switch {
		case !xmas.StepMatches(p[1], c.label):
		case len(p) == 2:
			return c, true
		case xmas.StepMatches(p[2], w.r.row.vals[c.pos].String()):
			return c.leaf, true
		}
	}
	w.done = true
	return nil, false
}

// bind makes a reference to spec in the walked row, bound to out.
func (w *rowSteps) bind(spec *rowSpec, out xmas.Var) *rowRef {
	return &rowRef{row: w.r.row, spec: spec, v: out}
}

// rowBatch turns pulled rows into a batch of references over sh's maps.
func rowBatch(pulled [][]relstore.Datum, sh *relShape, schema []xmas.Var) Batch {
	n, k, g := len(pulled), len(sh.specs), sh.slots
	rows := make([]relRow, n)
	refs := make([]rowRef, n*k)
	slots := make([]atomic.Pointer[rowBody], n*g)
	vals := make([]Value, k*n)
	cols := make([][]Value, k)
	for c := range cols {
		cols[c] = vals[c*n : (c+1)*n : (c+1)*n]
	}
	for i, row := range pulled {
		r := &rows[i]
		r.vals, r.bodies = row, slots[i*g:(i+1)*g]
		for c, s := range sh.specs {
			ref := &refs[i*k+c]
			ref.row, ref.spec, ref.v = r, s, schema[c]
			cols[c][i] = ref
		}
	}
	return Batch{schema: schema, cols: cols, n: n}
}

func compileRelQuery(o *xmas.RelQuery, cat *source.Catalog) (compiledOp, error) {
	db, ok := cat.RelDB(o.Server)
	if !ok {
		return nil, fmt.Errorf("engine: unknown relational server %s", o.Server)
	}
	schema := o.Schema()
	sh := newRelShape(o.Maps)
	sql := o.SQL
	return func(ctx *Ctx) Cursor {
		var cur relstore.Cursor
		var pulled [][]relstore.Datum
		done := false
		produce := func(max int) (Batch, bool, error) {
			if done {
				return Batch{}, false, nil
			}
			if cur == nil {
				// Under cost-based optimization, a query the catalog can
				// answer from an already-cached full scan never leaves the
				// mediator: the cached-scan-vs-pushdown decision is
				// unconditional in the cache's favor (0 round trips, 0
				// tuples shipped).
				if ctx.opts.CostOpt {
					if c, ok := cat.AnswerFromScanCache(db, sql); ok {
						cur = c
					}
				}
			}
			if cur == nil {
				// ExecRel routes through the catalog's result cache when one
				// is enabled: a repeated pushed-down query against an
				// unchanged store replays from mediator memory.
				c, err := cat.ExecRel(db, sql)
				if err != nil {
					return Batch{}, false, fmt.Errorf("engine: rQ(%s): %w", o.Server, err)
				}
				cur = c
			}
			pulled = pulled[:0]
			for len(pulled) < max {
				row, ok := cur.Next()
				if !ok {
					done = true
					cur.Close()
					break
				}
				pulled = append(pulled, row)
			}
			if len(pulled) == 0 {
				return Batch{}, false, nil
			}
			return rowBatch(pulled, sh, schema), true, nil
		}
		return newVecCursor(ctx.opts.BatchExec, produce, func() {
			if cur != nil && !done {
				done = true
				cur.Close()
			}
		})
	}, nil
}
