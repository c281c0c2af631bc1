// Package sqlexec executes the sqlparse SQL subset against a relstore
// database with a volcano-style iterator pipeline: one join step per FROM
// entry, which reaches its table through the store's equality lookup where a
// "column = literal" or equi-join predicate allows it and by a filtered scan
// (a nested loop, for a join) otherwise; under DISTINCT, a semi-join that
// stops at the first match for the entries that only test existence;
// residual filters; a blocking sort for an ORDER BY, unless the joined
// entries deliver in that order anyway; projection; and DISTINCT, which
// compares each row with the one before it where equal rows arrive together
// and remembers the rows it passed otherwise. Nothing proportional to a table
// is built or buffered before the first row unless that sort remains.
//
// Results are delivered through a relstore.Cursor so the mediator pulls rows
// one at a time; every delivered row increments the server's shipped-tuple
// counter. This is the partial-result interface the paper assumes of
// relational sources.
package sqlexec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
	offset int            // position of this table's first column in the rows it is joined into
}

// cpred is a WHERE conjunct, the columns its operands name (table -1 for a
// literal) and the FROM entries it mentions.
type cpred struct {
	pred   sqlparse.Pred
	cols   [2]colAt
	tables []int // indexes into bindings, sorted
}

// colAt is a column reference resolved to its FROM entry and its position in
// that entry's schema.
type colAt struct{ table, col int }

type planned struct {
	it    iter
	types []relstore.Type
}

// plan builds a left-deep pipeline in the order arrange chooses: one joinIter
// per FROM entry joined in, each reaching its table through the store's
// equality lookup when a predicate "column = literal" or "column = column of
// an entry joined earlier" offers one, and by scanning it otherwise; and one
// semiIter per group of entries that only test existence. Either way an
// entry's rows come in insertion order under each outer row, so the
// pipeline's output is ordered by (position in the first joined entry,
// position in the second, ...) — which is what lets plan drop an ORDER BY
// the stored order already satisfies (keyLead says when).
func plan(db *relstore.DB, q *sqlparse.Select) (*planned, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("sqlexec: query has no FROM clause")
	}
	// Bind FROM entries.
	bindings := make([]binding, len(q.From))
	seen := map[string]bool{}
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
		bindings[i] = binding{alias: tr.Alias, scan: scan}
	}
	res := &resolver{bindings: bindings}
	preds := make([]cpred, len(q.Where))
	for i, p := range q.Where {
		cp := &preds[i]
		cp.pred = p
		for k, e := range [2]sqlparse.Expr{p.Left, p.Right} {
			cp.cols[k].table = -1
			if e.IsLit {
				continue
			}
			c, err := res.locate(e.Col)
			if err != nil {
				return nil, err
			}
			cp.cols[k] = c
			if !slices.Contains(cp.tables, c.table) {
				cp.tables = append(cp.tables, c.table)
			}
		}
		slices.Sort(cp.tables)
	}
	cols, err := res.locateAll(q.Cols)
	if err != nil {
		return nil, err
	}
	keys, err := res.locateAll(q.OrderBy)
	if err != nil {
		return nil, err
	}
	a := res.arrange(preds, cols, keys, q.Distinct)

	// A predicate is evaluated where the last entry it mentions joins in (a
	// predicate over literals alone, at the first).
	rank, n := make([]int, len(bindings)), 0
	for _, st := range a.steps {
		for _, e := range st.entries {
			rank[e], n = n, n+1
		}
	}
	at := make([]int, len(preds))
	for i, cp := range preds {
		at[i] = a.steps[0].entries[0]
		for k, t := range cp.tables {
			if k == 0 || rank[t] > rank[at[i]] {
				at[i] = t
			}
		}
	}
	join := func(left iter, e int) (*joinIter, error) {
		b := bindings[e]
		j := &joinIter{left: left, scan: b.scan}
		for i, cp := range preds {
			if at[i] != e {
				continue
			}
			if j.lookup == nil {
				if j.lookup, j.probe = res.accessPath(cp, e); j.lookup != nil {
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
		return j, nil
	}

	var current iter
	width := 0
	for _, st := range a.steps {
		if !st.semi {
			e := st.entries[0]
			bindings[e].offset = width
			width += len(bindings[e].scan.Schema.Columns)
			j, err := join(current, e)
			if err != nil {
				return nil, err
			}
			current = j
			continue
		}
		// A semi-join: the group's entries join onto each row so far in a
		// pipeline of their own, which extends the row past its end.
		s := &semiIter{left: current, src: &rowIter{}}
		if s.left == nil {
			s.left = &rowIter{} // the one empty row a pipeline starts from
		}
		sub, off := iter(s.src), width
		for _, m := range st.entries {
			bindings[m].offset = off
			off += len(bindings[m].scan.Schema.Columns)
			j, err := join(sub, m)
			if err != nil {
				return nil, err
			}
			s.joins = append(s.joins, j)
			sub = j
		}
		s.sub = sub
		current = s
	}

	// ORDER BY: a blocking sort on datum order, unless the pipeline's own
	// order is the one asked for.
	if !a.sorted {
		offs := make([]int, len(keys))
		for i, c := range keys {
			offs[i] = bindings[c.table].offset + c.col
		}
		current = &sortIter{in: current, keys: offs}
	}

	// Projection.
	outOffsets := make([]int, len(cols))
	outTypes := make([]relstore.Type, len(cols))
	for i, c := range cols {
		b := bindings[c.table]
		outOffsets[i] = b.offset + c.col
		outTypes[i] = b.scan.Schema.Columns[c.col].Type
	}
	current = &projectIter{in: current, offsets: outOffsets}

	if q.Distinct {
		d := &distinctIter{in: current}
		if !a.adjacent {
			d.seen = map[string]bool{}
		}
		current = d
	}
	return &planned{it: current, types: outTypes}, nil
}

// arrangement is the pipeline's shape: its steps in order, whether they
// deliver rows in ORDER BY order, and whether equal output rows arrive next
// to each other.
type arrangement struct {
	steps    []step
	sorted   bool
	adjacent bool
}

// step joins one FROM entry in, or probes a semi-join group of entries in
// the order they are listed.
type step struct {
	entries []int
	semi    bool
}

// arrange chooses the pipeline's shape. Without DISTINCT it is FROM order.
// Under DISTINCT two moves keep the output and its order — the reference's:
// a stable sort of the FROM-order join, so that rows which tie on the ORDER
// BY keep FROM order.
//
//   - An entry none of whose columns is selected or ordered by only tests
//     whether a match exists. Such entries, grouped by the predicates
//     between them, become semi-joins: a group is probed right after the
//     last joined entry it depends on, once per row so far, and stops at its
//     first match. The rows that pass are those of the full join with the
//     group projected away, each once, which DISTINCT cannot tell apart. But
//     the group's positions no longer break ties, which is invisible only
//     when the ORDER BY fixes the output row (fixes says when) or when every
//     existence entry comes after every joined one in FROM order.
//   - The joined entries are reordered so that those whose strictly
//     ascending keys make up the ORDER BY lead, in its order, and the sort
//     goes. Rows that tie on the ORDER BY share those entries' rows, and
//     the other entries keep their FROM order behind them.
//
// Neither move is made where it would cost an entry its lookup.
func (r *resolver) arrange(preds []cpred, cols, keys []colAt, distinct bool) arrangement {
	n := len(r.bindings)
	used := make([]bool, n) // selected or ordered by
	for _, c := range cols {
		used[c.table] = true
	}
	for _, c := range keys {
		used[c.table] = true
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	lead, byKeys := r.keyLead(keys)
	pick := func(joined []int, used []bool) arrangement {
		a := r.layout(joined, used, preds)
		a.sorted = byKeys && len(lead) <= len(joined) && slices.Equal(lead, joined[:len(lead)])
		return a
	}
	plain := pick(all, nil)
	if !distinct {
		return plain
	}
	fixed := r.fixes(cols, keys)
	if fixed {
		// Where every ORDER BY column is also a selected key column, equal
		// output rows agree on the ORDER BY, which Compare orders totally,
		// so they sort next to each other.
		plain.adjacent = true
		for _, k := range keys {
			key := r.bindings[k.table].scan.Schema.Key
			plain.adjacent = plain.adjacent && slices.Contains(cols, k) && slices.Contains(key, k.col)
		}
	}
	exists := slices.Contains(used, false) && slices.Contains(used, true)
	if exists && !fixed {
		// No existence entry may come before a joined one.
		exists = !slices.Contains(used[slices.Index(used, false):], true)
	}
	joined := all
	if exists {
		joined = slices.DeleteFunc(slices.Clone(all), func(i int) bool { return !used[i] })
	} else {
		used = nil
	}
	tries := [][]int{joined}
	if byKeys {
		rest := slices.DeleteFunc(slices.Clone(joined), func(e int) bool { return slices.Contains(lead, e) })
		tries = [][]int{append(slices.Clone(lead), rest...), joined}
	}
	for _, try := range tries {
		if a := pick(try, used); r.scans(a, preds) <= r.scans(plain, preds) {
			a.adjacent = plain.adjacent
			return a
		}
	}
	return plain
}

// layout joins in the entries joined, in the order given, and makes every
// other entry (those used does not mark; none if used is nil) part of a
// semi-join group.
func (r *resolver) layout(joined []int, used []bool, preds []cpred) arrangement {
	n := len(r.bindings)
	var after [][]step // [k]: semi-joins probed before joined entry k
	if used != nil {
		after = make([][]step, len(joined)+1)
		// A predicate between two existence entries puts them in one group,
		// named by its first member.
		root := make([]int, n)
		for i := range root {
			root[i] = i
		}
		find := func(i int) int {
			for root[i] != i {
				i = root[i]
			}
			return i
		}
		for _, cp := range preds {
			if len(cp.tables) == 2 && !used[cp.tables[0]] && !used[cp.tables[1]] {
				x, y := find(cp.tables[0]), find(cp.tables[1])
				root[max(x, y)] = min(x, y)
			}
		}
		pos := make([]int, n)
		for k, e := range joined {
			pos[e] = k
		}
		for g := 0; g < n; g++ {
			if used[g] || find(g) != g {
				continue
			}
			members := make([]int, 0, n-g)
			for i := g; i < n; i++ {
				if !used[i] && find(i) == g {
					members = append(members, i)
				}
			}
			// Probe the group after the joined entries its predicates mention.
			bound := make([]bool, n)
			slot := 0
			for _, cp := range preds {
				if !slices.ContainsFunc(cp.tables, func(t int) bool { return !used[t] && find(t) == g }) {
					continue
				}
				for _, t := range cp.tables {
					if used[t] {
						bound[t] = true
						slot = max(slot, pos[t]+1)
					}
				}
			}
			// Each time, probe first a member that a bound column can look up.
			st := step{entries: make([]int, 0, len(members)), semi: true}
			for len(members) > 0 {
				k := max(0, slices.IndexFunc(members, func(m int) bool { return r.hasLookup(m, bound, preds) }))
				st.entries = append(st.entries, members[k])
				bound[members[k]] = true
				members = slices.Delete(members, k, k+1)
			}
			after[slot] = append(after[slot], st)
		}
	}
	a := arrangement{steps: make([]step, 0, n)}
	for k := range joined {
		if after != nil {
			a.steps = append(a.steps, after[k]...)
		}
		a.steps = append(a.steps, step{entries: joined[k : k+1]})
	}
	if after != nil {
		a.steps = append(a.steps, after[len(joined)]...)
	}
	return a
}

// scans counts the entries of a that would have no lookup and scan their
// table, once per outer row.
func (r *resolver) scans(a arrangement, preds []cpred) int {
	n := 0
	joined := make([]bool, len(r.bindings)) // joined in so far
	for _, st := range a.steps {
		bound := joined
		if st.semi {
			bound = slices.Clone(joined) // and the group's entries probed so far
		}
		for _, e := range st.entries {
			if !r.hasLookup(e, bound, preds) {
				n++
			}
			bound[e] = true
		}
	}
	return n
}

// hasLookup reports whether entry e, joined after the bound entries, has a
// lookup.
func (r *resolver) hasLookup(e int, bound []bool, preds []cpred) bool {
	for _, cp := range preds {
		if !slices.Contains(cp.tables, e) || slices.ContainsFunc(cp.tables, func(t int) bool { return t != e && !bound[t] }) {
			continue
		}
		if col, _ := r.searchable(cp, e); col >= 0 {
			return true
		}
	}
	return false
}

// fixes reports whether sorting on keys orders the output rows with no ties
// between different ones: keys names the key of every entry with a selected
// column, and each of those keys ascends strictly, so no two of its rows
// share one.
func (r *resolver) fixes(cols, keys []colAt) bool {
	if len(keys) == 0 {
		return false
	}
	for _, c := range cols {
		s := r.bindings[c.table].scan
		if !s.KeyAscending() {
			return false
		}
		for _, kc := range s.Schema.Key {
			if !slices.Contains(keys, colAt{c.table, kc}) {
				return false
			}
		}
	}
	return true
}

// keyLead returns the entries whose keys make up keys, in its order, when
// it is such a sequence of keys and each ascends strictly in insertion
// order. Rows in the order of positions in those entries, and of anything
// joined behind them, are then sorted on keys: position order is key order
// on each, and because no two rows of such a table share a key, rows that
// tie on keys are exactly those that differ only in later entries, which
// the pipeline leaves in the order a stable sort would.
func (r *resolver) keyLead(keys []colAt) ([]int, bool) {
	var lead []int
	for k := 0; k < len(keys); {
		t := keys[k].table
		s := r.bindings[t].scan
		if slices.Contains(lead, t) || !s.KeyAscending() {
			return nil, false
		}
		for _, kc := range s.Schema.Key {
			if k == len(keys) || keys[k] != (colAt{t, kc}) {
				return nil, false
			}
			k++
		}
		lead = append(lead, t)
	}
	return lead, true
}

// searchable returns the column of entry i that cp equates with a literal
// or with a column of another entry, when the store can search that column,
// and which operand that other is; col is -1 if there is none.
func (r *resolver) searchable(cp cpred, i int) (col, other int) {
	if cp.pred.Op != xtree.OpEQ {
		return -1, 0
	}
	for side, c := range cp.cols {
		if c.table != i || cp.cols[1-side].table == i {
			continue
		}
		if _, ok := r.bindings[i].scan.Lookup(c.col); !ok {
			return -1, 0
		}
		return c.col, 1 - side
	}
	return -1, 0
}

// accessPath turns cp into a lookup on FROM entry i when cp equates one of
// its columns with a literal or with a column of an entry joined earlier and
// the store can search that column; probe yields the value to look up from
// the outer row. A nil lookup means cp stays a filter.
func (r *resolver) accessPath(cp cpred, i int) (*relstore.Lookup, func(outer []relstore.Datum) relstore.Datum) {
	col, other := r.searchable(cp, i)
	if col < 0 {
		return nil, nil
	}
	s := r.bindings[i].scan
	lookup, _ := s.Lookup(col)
	if o := cp.cols[other]; o.table >= 0 {
		off := r.bindings[o.table].offset + o.col
		return lookup, func(outer []relstore.Datum) relstore.Datum { return outer[off] }
	}
	lit := cp.pred.Right.Lit
	if other == 0 {
		lit = cp.pred.Left.Lit
	}
	d := literal(lit, s.Schema.Columns[col].Type)
	return lookup, func([]relstore.Datum) relstore.Datum { return d }
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

// locate maps a column reference to its FROM entry and column.
func (r *resolver) locate(c sqlparse.ColRef) (colAt, error) {
	found := colAt{table: -1}
	for i, b := range r.bindings {
		if c.Qualifier != "" && b.alias != c.Qualifier {
			continue
		}
		if idx := b.scan.Schema.ColIndex(c.Column); idx >= 0 {
			if found.table >= 0 {
				return found, fmt.Errorf("sqlexec: ambiguous column %s", c)
			}
			found = colAt{i, idx}
		}
	}
	if found.table < 0 {
		return found, fmt.Errorf("sqlexec: unknown column %s", c)
	}
	return found, nil
}

func (r *resolver) locateAll(cs []sqlparse.ColRef) ([]colAt, error) {
	out := make([]colAt, len(cs))
	for i, c := range cs {
		var err error
		if out[i], err = r.locate(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// resolve maps a column reference to its offset in the joined row.
func (r *resolver) resolve(c sqlparse.ColRef) (offset int, typ relstore.Type, err error) {
	at, err := r.locate(c)
	if err != nil {
		return 0, 0, err
	}
	b := r.bindings[at.table]
	return b.offset + at.col, b.scan.Schema.Columns[at.col].Type, nil
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

// rowIter delivers one row, once: the row a semi-join probes with, or the
// empty row a pipeline that opens with a semi-join starts from.
type rowIter struct {
	row  []relstore.Datum
	done bool
}

func (r *rowIter) next() ([]relstore.Datum, bool) {
	if r.done {
		return nil, false
	}
	r.done = true
	return r.row, true
}

// semiIter passes the rows of left for which the pipeline sub, fed the row
// through src, yields any row: it stops at the first, so a row with many
// matches costs what a row with one does. joins are sub's steps, rewound for
// each row.
type semiIter struct {
	left  iter
	src   *rowIter
	sub   iter
	joins []*joinIter
}

func (s *semiIter) next() ([]relstore.Datum, bool) {
	for {
		row, ok := s.left.next()
		if !ok {
			return nil, false
		}
		s.src.row, s.src.done = row, false
		for _, j := range s.joins {
			j.started, j.done = false, false
		}
		if _, ok := s.sub.next(); ok {
			return row, true
		}
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
// Where equal rows arrive next to each other (arrangement.adjacent), seen is
// nil and a row is compared with the one before it only.
type distinctIter struct {
	in        iter
	seen      map[string]bool
	key, prev []byte
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
		if d.seen == nil {
			if bytes.Equal(k, d.prev) {
				continue
			}
			d.key, d.prev = d.prev, k
			return row, true
		}
		if d.seen[string(k)] {
			continue
		}
		d.seen[string(k)] = true
		return row, true
	}
}
