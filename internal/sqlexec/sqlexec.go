// Package sqlexec executes the sqlparse SQL subset against a relstore
// database with a volcano-style iterator pipeline: one join step per FROM
// entry, which reaches its table through the store's equality lookup where a
// "column = literal" or equi-join predicate allows it and by a filtered scan
// (a nested loop, for a join) otherwise; residual filters; a blocking sort
// for an ORDER BY, unless it names the strictly ascending keys of the leading
// FROM entries, which is the order the pipeline delivers in anyway;
// projection; and streaming hash-based DISTINCT. Nothing proportional to a
// table is built or buffered unless that sort remains.
//
// Results are delivered through a relstore.Cursor so the mediator pulls rows
// one at a time; every delivered row increments the server's shipped-tuple
// counter. This is the partial-result interface the paper assumes of
// relational sources.
package sqlexec

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mix/internal/relstore"
	"mix/internal/sqlparse"
	"mix/internal/xtree"
)

// ExecSQL parses and executes sql against db.
func ExecSQL(db *relstore.DB, sql string) (relstore.Cursor, *Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	return Exec(db, q)
}

// Result describes the shape of the rows a cursor delivers.
type Result struct {
	Cols  []sqlparse.ColRef
	Types []relstore.Type
}

// Exec plans and runs q, returning a pipelined cursor over the result and
// the result-column metadata.
func Exec(db *relstore.DB, q *sqlparse.Select) (relstore.Cursor, *Result, error) {
	db.NoteQuery()
	pl, err := plan(db, q)
	if err != nil {
		return nil, nil, err
	}
	return &countingCursor{db: db, it: pl.it}, &Result{Cols: q.Cols, Types: pl.types}, nil
}

// iter is the internal volcano iterator. A row is valid until the next call:
// sortIter, the one stage that keeps rows, copies them, and projectIter hands
// the cursor fresh ones.
type iter interface {
	next() ([]relstore.Datum, bool)
}

type countingCursor struct {
	db     *relstore.DB
	it     iter
	closed bool
}

func (c *countingCursor) Next() ([]relstore.Datum, bool) {
	if c.closed {
		return nil, false
	}
	row, ok := c.it.next()
	if !ok {
		return nil, false
	}
	c.db.NoteShipped(1)
	return row, true
}

func (c *countingCursor) Close() { c.closed = true }

// ---- planning ----

type binding struct {
	alias  string
	scan   *relstore.Scan // rows and access paths as of bind time
	offset int            // position of this table's first column in the joined row
}

type planned struct {
	it    iter
	types []relstore.Type
}

// plan builds a left-deep pipeline in FROM order: one joinIter per FROM
// entry, each reaching its table through the store's equality lookup when a
// predicate "column = literal" or "column = column of an earlier entry"
// offers one, and by scanning it otherwise. Either way an entry's rows come
// in insertion order under each outer row, so the pipeline's output is
// ordered by (position in the first table, position in the second, ...) —
// which is what lets ordered drop an ORDER BY the stored order already
// satisfies.
func plan(db *relstore.DB, q *sqlparse.Select) (*planned, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("sqlexec: query has no FROM clause")
	}
	// Bind FROM entries.
	bindings := make([]binding, len(q.From))
	seen := map[string]bool{}
	offset := 0
	for i, tr := range q.From {
		// The scan fixes the rows this query sees: concurrent Inserts
		// (producer goroutines under intra-query parallelism, writers beside a
		// navigation session) append past its mark.
		scan, ok := db.Scan(tr.Relation)
		if !ok {
			return nil, fmt.Errorf("sqlexec: unknown relation %s", tr.Relation)
		}
		if seen[tr.Alias] {
			return nil, fmt.Errorf("sqlexec: duplicate alias %s", tr.Alias)
		}
		seen[tr.Alias] = true
		bindings[i] = binding{alias: tr.Alias, scan: scan, offset: offset}
		offset += len(scan.Schema.Columns)
	}
	res := &resolver{bindings: bindings}

	// A predicate is evaluated where the last FROM entry it mentions joins in
	// (a predicate over literals alone, at the first).
	type cpred struct {
		pred   sqlparse.Pred
		tables []int // indexes into bindings, sorted
		at     int
	}
	preds := make([]cpred, len(q.Where))
	for i, p := range q.Where {
		ts, err := res.predTables(p)
		if err != nil {
			return nil, err
		}
		preds[i] = cpred{pred: p, tables: ts}
		if len(ts) > 0 {
			preds[i].at = ts[len(ts)-1]
		}
	}

	var current iter
	for i, b := range bindings {
		j := &joinIter{left: current, scan: b.scan}
		for _, cp := range preds {
			if cp.at != i {
				continue
			}
			if j.lookup == nil {
				var err error
				if j.lookup, j.probe, err = res.accessPath(cp.pred, i); err != nil {
					return nil, err
				}
				if j.lookup != nil {
					continue // the lookup is the predicate
				}
			}
			if len(cp.tables) == 1 {
				f, err := res.compile(cp.pred, b.offset)
				if err != nil {
					return nil, err
				}
				j.local = append(j.local, f)
			} else {
				f, err := res.compile(cp.pred, 0)
				if err != nil {
					return nil, err
				}
				j.filters = append(j.filters, f)
			}
		}
		current = j
	}

	// ORDER BY: a blocking sort on datum order, unless the pipeline's own
	// order is the one asked for.
	if len(q.OrderBy) > 0 {
		keys := make([]int, len(q.OrderBy))
		for i, c := range q.OrderBy {
			off, _, err := res.resolve(c)
			if err != nil {
				return nil, err
			}
			keys[i] = off
		}
		if !ordered(bindings, keys) {
			current = &sortIter{in: current, keys: keys}
		}
	}

	// Projection.
	outOffsets := make([]int, len(q.Cols))
	outTypes := make([]relstore.Type, len(q.Cols))
	for i, c := range q.Cols {
		off, typ, err := res.resolve(c)
		if err != nil {
			return nil, err
		}
		outOffsets[i] = off
		outTypes[i] = typ
	}
	current = &projectIter{in: current, offsets: outOffsets}

	if q.Distinct {
		current = &distinctIter{in: current, seen: map[string]bool{}}
	}
	return &planned{it: current, types: outTypes}, nil
}

// ordered reports whether rows ordered by (position in the first FROM entry,
// position in the second, ...) are thereby sorted on keys, the joined-row
// offsets of an ORDER BY: when keys lists the key columns of the first one or
// more FROM entries, in FROM order, and each of those keys ascends strictly
// in insertion order. Position order is then key order on each of them, and
// because no two rows of such a table share a key, rows that tie on keys are
// exactly those that differ only in later entries — which the pipeline leaves
// in the order a stable sort would.
func ordered(bindings []binding, keys []int) bool {
	k := 0
	for _, b := range bindings {
		if k == len(keys) {
			break
		}
		if !b.scan.KeyAscending() {
			return false
		}
		for _, kc := range b.scan.Schema.Key {
			if k == len(keys) || keys[k] != b.offset+kc {
				return false
			}
			k++
		}
	}
	return k == len(keys)
}

// accessPath turns p into a lookup on FROM entry i when p equates one of its
// columns with a literal or with a column of an earlier entry and the store
// can search that column; probe yields the value to look up from the outer
// row. A nil lookup means p stays a filter.
func (r *resolver) accessPath(p sqlparse.Pred, i int) (*relstore.Lookup, func(outer []relstore.Datum) relstore.Datum, error) {
	if p.Op != xtree.OpEQ {
		return nil, nil, nil
	}
	for _, side := range [2][2]sqlparse.Expr{{p.Left, p.Right}, {p.Right, p.Left}} {
		col, other := side[0], side[1]
		if t, err := r.exprTable(col); err != nil {
			return nil, nil, err
		} else if t != i {
			continue
		}
		if t, err := r.exprTable(other); err != nil {
			return nil, nil, err
		} else if t == i {
			continue
		}
		off, typ, err := r.resolve(col.Col)
		if err != nil {
			return nil, nil, err
		}
		lookup, ok := r.bindings[i].scan.Lookup(off - r.bindings[i].offset)
		if !ok {
			return nil, nil, nil
		}
		if other.IsLit {
			d := literal(other.Lit, typ)
			return lookup, func([]relstore.Datum) relstore.Datum { return d }, nil
		}
		outerOff, _, err := r.resolve(other.Col)
		if err != nil {
			return nil, nil, err
		}
		return lookup, func(outer []relstore.Datum) relstore.Datum { return outer[outerOff] }, nil
	}
	return nil, nil, nil
}

// literal reads a literal as a value of the type of the column it is compared
// with, falling back to a string (mirrors the loose typing of
// xtree.CompareValues).
func literal(lit string, typ relstore.Type) relstore.Datum {
	d, err := relstore.ParseDatum(typ, lit)
	if err != nil {
		return relstore.Str(lit)
	}
	return d
}

// ---- name resolution ----

type resolver struct {
	bindings []binding
}

// resolve maps a column reference to its offset in the joined row.
func (r *resolver) resolve(c sqlparse.ColRef) (offset int, typ relstore.Type, err error) {
	found := -1
	for _, b := range r.bindings {
		if c.Qualifier != "" && b.alias != c.Qualifier {
			continue
		}
		if idx := b.scan.Schema.ColIndex(c.Column); idx >= 0 {
			if found >= 0 {
				return 0, 0, fmt.Errorf("sqlexec: ambiguous column %s", c)
			}
			found = b.offset + idx
			typ = b.scan.Schema.Columns[idx].Type
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("sqlexec: unknown column %s", c)
	}
	return found, typ, nil
}

// exprTable returns the binding index an expression's column belongs to,
// or -1 for literals.
func (r *resolver) exprTable(e sqlparse.Expr) (int, error) {
	if e.IsLit {
		return -1, nil
	}
	for i, b := range r.bindings {
		if e.Col.Qualifier != "" && b.alias != e.Col.Qualifier {
			continue
		}
		if b.scan.Schema.ColIndex(e.Col.Column) >= 0 {
			return i, nil
		}
	}
	return -1, fmt.Errorf("sqlexec: unknown column %s", e.Col)
}

func (r *resolver) predTables(p sqlparse.Pred) ([]int, error) {
	set := map[int]bool{}
	for _, e := range []sqlparse.Expr{p.Left, p.Right} {
		t, err := r.exprTable(e)
		if err != nil {
			return nil, err
		}
		if t >= 0 {
			set[t] = true
		}
	}
	out := make([]int, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Ints(out)
	return out, nil
}

// CompilePred compiles one WHERE conjunct over a row of a single relation
// (its columns in schema order, the FROM entry aliased alias) with the
// operand typing Exec uses: a literal takes the type of the column it is
// compared with and falls back to a string.
func CompilePred(schema relstore.Schema, alias string, p sqlparse.Pred) (func([]relstore.Datum) bool, error) {
	// Name resolution reads only a binding's schema, never its rows.
	r := &resolver{bindings: []binding{{alias: alias, scan: &relstore.Scan{Schema: schema}}}}
	return r.compile(p, 0)
}

// compiledPred evaluates a predicate over a row.
type compiledPred func(row []relstore.Datum) bool

// compile compiles a predicate over a row in which the joined row's offset
// rebase sits at position 0: a FROM entry's offset for a predicate over that
// table's own row, 0 for one over the joined row.
func (r *resolver) compile(p sqlparse.Pred, rebase int) (compiledPred, error) {
	getter := func(e sqlparse.Expr, other sqlparse.Expr) (func([]relstore.Datum) relstore.Datum, error) {
		if e.IsLit {
			typ := relstore.TString
			if !other.IsLit {
				if _, t, err := r.resolve(other.Col); err == nil {
					typ = t
				}
			}
			d := literal(e.Lit, typ)
			return func([]relstore.Datum) relstore.Datum { return d }, nil
		}
		off, _, err := r.resolve(e.Col)
		if err != nil {
			return nil, err
		}
		off -= rebase
		return func(row []relstore.Datum) relstore.Datum { return row[off] }, nil
	}
	lf, err := getter(p.Left, p.Right)
	if err != nil {
		return nil, err
	}
	rf, err := getter(p.Right, p.Left)
	if err != nil {
		return nil, err
	}
	op := p.Op
	return func(row []relstore.Datum) bool {
		c := relstore.Compare(lf(row), rf(row))
		switch op {
		case xtree.OpEQ:
			return c == 0
		case xtree.OpNE:
			return c != 0
		case xtree.OpLT:
			return c < 0
		case xtree.OpLE:
			return c <= 0
		case xtree.OpGT:
			return c > 0
		case xtree.OpGE:
			return c >= 0
		}
		return false
	}, nil
}

// ---- iterators ----

// joinIter joins one FROM entry onto the rows produced so far. For each
// outer row it takes the entry's rows either from the store's lookup — the
// rows whose column equals the probe value — or, without one, all of them: a
// nested loop. Both deliver in insertion order, local filters see the entry's
// own row, filters the joined row. The first FROM entry has no left input and
// joins onto a single empty row.
type joinIter struct {
	left iter // nil for the first FROM entry
	scan *relstore.Scan

	lookup  *relstore.Lookup // nil: scan every row
	probe   func(outer []relstore.Datum) relstore.Datum
	local   []compiledPred
	filters []compiledPred

	outer   []relstore.Datum
	inner   relstore.Matches
	row     []relstore.Datum // the joined row: outer, then the entry's columns; reused
	started bool
	done    bool
}

func (j *joinIter) next() ([]relstore.Datum, bool) {
	for !j.done {
		if !j.started {
			if j.left != nil {
				outer, ok := j.left.next()
				if !ok {
					break
				}
				j.outer = outer
				j.row = append(j.row[:0], outer...)
			}
			if j.lookup != nil {
				j.inner = j.lookup.Find(j.probe(j.outer))
			} else {
				j.inner = j.scan.All()
			}
			j.started = true
		}
		row, ok := j.nextInner()
		if ok {
			return row, true
		}
		j.started = false
		j.done = j.left == nil
	}
	j.done = true
	return nil, false
}

// nextInner returns the next joined row under the current outer row.
func (j *joinIter) nextInner() ([]relstore.Datum, bool) {
candidates:
	for {
		var ok bool
		if j.row, ok = j.inner.Next(j.row[:len(j.outer)]); !ok {
			return nil, false
		}
		own := j.row[len(j.outer):]
		for _, f := range j.local {
			if !f(own) {
				continue candidates
			}
		}
		for _, f := range j.filters {
			if !f(j.row) {
				continue candidates
			}
		}
		return j.row, true
	}
}

type sortIter struct {
	in     iter
	keys   []int
	rows   [][]relstore.Datum
	pos    int
	sorted bool
}

func (s *sortIter) next() ([]relstore.Datum, bool) {
	if !s.sorted {
		for {
			r, ok := s.in.next()
			if !ok {
				break
			}
			s.rows = append(s.rows, append([]relstore.Datum(nil), r...)) // the input reuses r
		}
		sort.SliceStable(s.rows, func(i, j int) bool {
			for _, k := range s.keys {
				c := relstore.Compare(s.rows[i][k], s.rows[j][k])
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		s.sorted = true
	}
	if s.pos >= len(s.rows) {
		return nil, false
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true
}

type projectIter struct {
	in      iter
	offsets []int
}

func (p *projectIter) next() ([]relstore.Datum, bool) {
	row, ok := p.in.next()
	if !ok {
		return nil, false
	}
	out := make([]relstore.Datum, len(p.offsets))
	for i, off := range p.offsets {
		out[i] = row[off]
	}
	return out, true
}

// distinctIter passes each row whose values' texts have not passed before.
// A row's key is its values' texts, each prefixed by its length, so that no
// two different rows share one — ("a\x00", "b") and ("a", "\x00b") included.
type distinctIter struct {
	in   iter
	seen map[string]bool
	key  []byte
}

func (d *distinctIter) next() ([]relstore.Datum, bool) {
	for {
		row, ok := d.in.next()
		if !ok {
			return nil, false
		}
		k := d.key[:0]
		for _, v := range row {
			at := len(k)
			k = v.AppendText(append(k, 0, 0, 0, 0))
			binary.BigEndian.PutUint32(k[at:], uint32(len(k)-at-4))
		}
		d.key = k
		if d.seen[string(k)] {
			continue
		}
		d.seen[string(k)] = true
		return row, true
	}
}
