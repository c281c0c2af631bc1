// Package sqlgen performs the plan-splitting step of paper Section 6: "the
// simplified algebraic plan can then be input to a module which splits the
// plan into two components: one part consisting of restructuring and
// grouping operators which is executed at the mediator. The second part ...
// is translated into a query in the appropriate query language for sending
// to the sources, and is represented at the mediator by a source access
// operator of the appropriate type."
//
// Push walks an optimized plan, finds the maximal subplans that consist of
// wrapper-source access (mkSrc over a relation view), navigation into the
// wrapper structure (getD to tuples and columns), selections, equi-joins,
// semi-joins and ordering — all against relations of one server — and
// replaces each with a relQuery operator carrying generated SQL (paper
// Figure 22: joins become FROM-lists, a semi-join becomes a DISTINCT
// self-join, and a group-by above the carved subplan adds ORDER BY and
// switches to the stateless presorted implementation of Table 1).
package sqlgen

import (
	"fmt"
	"slices"
	"strings"

	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/sqlparse"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// Push replaces every maximal SQL-translatable subplan with a relQuery
// operator and upgrades group-bys fed by sorted relQuery output to the
// presorted (stateless) implementation. Every generated query gets a
// deterministic ORDER BY over the exported tuple keys, so a pushed plan
// delivers its results in key order whatever order the source stores them
// in. That is also the order of the unpushed wrapper scans — insertion order
// — exactly when the relations were inserted in strictly ascending key
// order; sqlexec then finds the ORDER BY already satisfied and does not sort.
// Before a semi-join chain is converted, every filter the base's own server
// can answer is moved onto the base (foldSemiChain), so that server receives
// the most restrictive query it can evaluate.
// The input plan is not mutated; the result shares every subtree Push did not
// change with it. In debug mode (xmas.SetDebug, MIXDEBUG env) the result is
// validated here; otherwise engine.Compile verifies it.
func Push(plan xmas.Op, cat *source.Catalog) (xmas.Op, error) {
	return push(plan, cat, true)
}

// push is Push with the semi-join fold switchable, so tests can measure the
// plan the chain's own order pushes to.
func push(plan xmas.Op, cat *source.Catalog, fold bool) (xmas.Op, error) {
	out := pushWalk(plan, cat, fold)
	out = presortGroupBys(out)
	out = defaultOrderBys(out)
	if xmas.DebugEnabled() {
		if err := xmas.Validate(out); err != nil {
			return nil, fmt.Errorf("sqlgen: produced invalid plan: %w", err)
		}
	}
	return out, nil
}

// defaultOrderBys appends ORDER BY on the key columns of every exported
// tuple variable to any relQuery that has no explicit order yet.
func defaultOrderBys(op xmas.Op) xmas.Op {
	if rq, ok := op.(*xmas.RelQuery); ok {
		sel, err := sqlparse.Parse(rq.SQL)
		if err != nil || len(sel.OrderBy) > 0 {
			return op
		}
		seen := map[string]bool{}
		for _, m := range rq.Maps {
			if len(m.Cols) <= 1 { // only tuple variables order the stream
				continue
			}
			for _, pos := range m.KeyCols {
				if pos < 0 || pos >= len(sel.Cols) {
					continue
				}
				ref := sel.Cols[pos]
				if seen[ref.String()] {
					continue
				}
				seen[ref.String()] = true
				sel.OrderBy = append(sel.OrderBy, ref)
			}
		}
		if len(sel.OrderBy) == 0 {
			return op
		}
		c := *rq
		c.SQL = sel.String()
		return &c
	}
	return xmas.MapInputs(op, defaultOrderBys)
}

// pushWalk rebuilds the plan top-down, converting the largest convertible
// subtrees first.
func pushWalk(op xmas.Op, cat *source.Catalog, fold bool) xmas.Op {
	if sj, ok := op.(*xmas.SemiJoin); ok && fold {
		op = foldSemiChain(sj, cat)
	}
	var aliases aliasAllocator
	if frag, ok := convert(op, cat, &aliases); ok && frag.tableCount() > 0 {
		return frag.toRelQuery(op.Schema())
	}
	return xmas.MapInputs(op, func(in xmas.Op) xmas.Op { return pushWalk(in, cat, fold) })
}

// ---- semi-join folding ----

// keptSide is the input whose tuples a semi-join keeps.
func keptSide(sj *xmas.SemiJoin) xmas.Op {
	if sj.Keep == xmas.KeepLeft {
		return sj.L
	}
	return sj.R
}

// onKept applies link's filter, in link's orientation, to kept.
func onKept(link *xmas.SemiJoin, kept xmas.Op) xmas.Op {
	if link.Keep == xmas.KeepLeft {
		return link.WithInputs(kept, link.R)
	}
	return link.WithInputs(link.L, kept)
}

// flattenSemi decomposes a chain of semi-joins into its kept base and its
// links, in application order (innermost first).
func flattenSemi(sj *xmas.SemiJoin) (xmas.Op, []*xmas.SemiJoin) {
	var links []*xmas.SemiJoin
	var op xmas.Op = sj
	for s, ok := sj, true; ok; s, ok = op.(*xmas.SemiJoin) {
		links = append(links, s)
		op = keptSide(s)
	}
	slices.Reverse(links)
	return op, links
}

// foldSemiChain moves every filter of a semi-join chain that the base's own
// server can evaluate directly onto the base, where convert merges it into
// the base's query as Figure 22's DISTINCT self-join; the other filters
// follow in their original order. A semi-join only filters its kept side,
// so any order keeps the same tuples in the base's order, and DISTINCT drops
// only rows equal on every selected column, the key columns among them.
// That needs keys: a semi-join also drops kept tuples with equal ids, which
// are made of the key columns, and the rows of a keyless relation share one
// id, so which of them survives would depend on the order the filters run
// in. A filter folds only over a base whose every variable has a key. A
// single link, or a chain whose foldable filters already come first, is
// returned as it is.
func foldSemiChain(sj *xmas.SemiJoin, cat *source.Catalog) xmas.Op {
	if _, ok := keptSide(sj).(*xmas.SemiJoin); !ok {
		return sj
	}
	base, links := flattenSemi(sj)
	cur, moved := base, false
	var rest []*xmas.SemiJoin
	for _, l := range links {
		if cand := onKept(l, cur); mergesKeyed(cand, cat) {
			cur, moved = cand, moved || len(rest) > 0
		} else {
			rest = append(rest, l)
		}
	}
	if !moved {
		return sj
	}
	for _, l := range rest {
		cur = onKept(l, cur)
	}
	return cur
}

// mergesKeyed reports whether op converts to one query whose every exported
// variable ranges over a keyed relation.
func mergesKeyed(op xmas.Op, cat *source.Catalog) bool {
	var aliases aliasAllocator
	f, ok := convert(op, cat, &aliases)
	if !ok {
		return false
	}
	for _, vi := range f.vars {
		if len(vi.schema.Key) == 0 {
			return false
		}
	}
	return true
}

// ---- conversion state ----

type varKind int

const (
	kindTuple varKind = iota
	kindColumn
)

type varInfo struct {
	kind   varKind
	alias  string
	schema relstore.Schema
	col    string // for kindColumn
}

type frag struct {
	server  string
	from    []sqlparse.TableRef
	where   []sqlparse.Pred
	orderBy []sqlparse.ColRef
	vars    map[xmas.Var]varInfo
	order   []xmas.Var // schema order of exported vars
	dist    bool
}

func (f *frag) tableCount() int { return len(f.from) }

// aliasAllocator numbers table aliases per initial; the zero value is ready.
type aliasAllocator struct{ counts map[string]int }

func (a *aliasAllocator) alloc(relation string) string {
	prefix := relation[:1]
	if a.counts == nil {
		a.counts = map[string]int{}
	}
	a.counts[prefix]++
	return fmt.Sprintf("%s%d", prefix, a.counts[prefix])
}

// convert tries to turn the subtree into a single SQL query fragment.
func convert(op xmas.Op, cat *source.Catalog, aliases *aliasAllocator) (*frag, bool) {
	switch o := op.(type) {
	case *xmas.MkSrc:
		if o.In != nil {
			return nil, false
		}
		rb, ok := cat.RelBindingFor(o.SrcID)
		if !ok {
			return nil, false
		}
		alias := aliases.alloc(rb.Relation)
		f := &frag{
			server: rb.Server,
			from:   []sqlparse.TableRef{{Relation: rb.Relation, Alias: alias}},
			vars:   map[xmas.Var]varInfo{o.Out: {kind: kindTuple, alias: alias, schema: rb.Schema}},
			order:  []xmas.Var{o.Out},
		}
		return f, true

	case *xmas.GetD:
		f, ok := convert(o.In, cat, aliases)
		if !ok {
			return nil, false
		}
		vi, ok := f.vars[o.From]
		if !ok || vi.kind != kindTuple {
			return nil, false
		}
		switch {
		case len(o.Path) == 1 && xmas.StepMatches(o.Path[0], vi.schema.Relation):
			// Self-alias: $C ranges over the same tuples as $doc.
			f.vars[o.Out] = vi
			f.order = append(f.order, o.Out)
			return f, true
		case len(o.Path) == 2 && xmas.StepMatches(o.Path[0], vi.schema.Relation):
			col := o.Path[1]
			if vi.schema.ColIndex(col) < 0 {
				return nil, false
			}
			f.vars[o.Out] = varInfo{kind: kindColumn, alias: vi.alias, schema: vi.schema, col: col}
			f.order = append(f.order, o.Out)
			return f, true
		}
		return nil, false

	case *xmas.Select:
		f, ok := convert(o.In, cat, aliases)
		if !ok {
			return nil, false
		}
		pred, ok := f.condToPred(o.Cond)
		if !ok {
			return nil, false
		}
		f.where = append(f.where, pred)
		return f, true

	case *xmas.Join:
		if o.Cond == nil {
			return nil, false
		}
		return convertJoin(o.L, o.R, *o.Cond, nil, cat, aliases)

	case *xmas.SemiJoin:
		if o.Cond == nil {
			return nil, false
		}
		keep := o.Keep
		return convertJoin(o.L, o.R, *o.Cond, &keep, cat, aliases)

	case *xmas.OrderBy:
		f, ok := convert(o.In, cat, aliases)
		if !ok {
			return nil, false
		}
		for _, v := range o.Vars {
			cols, ok := f.idCols(v)
			if !ok {
				return nil, false
			}
			f.orderBy = append(f.orderBy, cols...)
		}
		return f, true

	case *xmas.Project:
		f, ok := convert(o.In, cat, aliases)
		if !ok {
			return nil, false
		}
		nv := map[xmas.Var]varInfo{}
		var norder []xmas.Var
		for _, v := range o.Vars {
			vi, ok := f.vars[v]
			if !ok {
				return nil, false
			}
			nv[v] = vi
			norder = append(norder, v)
		}
		f.vars, f.order = nv, norder
		f.dist = true
		return f, true
	}
	return nil, false
}

func convertJoin(l, r xmas.Op, cond xmas.Cond, keep *xmas.Side, cat *source.Catalog, aliases *aliasAllocator) (*frag, bool) {
	lf, ok := convert(l, cat, aliases)
	if !ok {
		return nil, false
	}
	rf, ok := convert(r, cat, aliases)
	if !ok {
		return nil, false
	}
	if lf.server != rf.server {
		return nil, false
	}
	merged := &frag{
		server:  lf.server,
		from:    append(append([]sqlparse.TableRef{}, lf.from...), rf.from...),
		where:   append(append([]sqlparse.Pred{}, lf.where...), rf.where...),
		orderBy: append(append([]sqlparse.ColRef{}, lf.orderBy...), rf.orderBy...),
		vars:    map[xmas.Var]varInfo{},
		dist:    lf.dist || rf.dist,
	}
	for _, v := range lf.order {
		merged.vars[v] = lf.vars[v]
		merged.order = append(merged.order, v)
	}
	for _, v := range rf.order {
		merged.vars[v] = rf.vars[v]
		merged.order = append(merged.order, v)
	}
	pred, ok := merged.condToPred(cond)
	if !ok {
		return nil, false
	}
	merged.where = append(merged.where, pred)
	if keep != nil {
		// A semi-join keeps one side's variables and deduplicates — the
		// DISTINCT self-join of Figure 22.
		var side *frag
		if *keep == xmas.KeepLeft {
			side = lf
		} else {
			side = rf
		}
		merged.vars = map[xmas.Var]varInfo{}
		merged.order = nil
		for _, v := range side.order {
			merged.vars[v] = side.vars[v]
			merged.order = append(merged.order, v)
		}
		merged.dist = true
	}
	return merged, true
}

// condToPred translates an XMAS condition over this fragment's variables.
func (f *frag) condToPred(c xmas.Cond) (sqlparse.Pred, bool) {
	expr := func(o xmas.Operand, other xmas.Operand) (sqlparse.Expr, bool) {
		if o.IsConst {
			if strings.HasPrefix(o.Const, "&") {
				return sqlparse.Expr{}, false // handled by id-selection path
			}
			return sqlparse.Expr{IsLit: true, Lit: o.Const}, true
		}
		vi, ok := f.vars[o.V]
		if !ok || vi.kind != kindColumn {
			return sqlparse.Expr{}, false
		}
		return sqlparse.Expr{Col: sqlparse.ColRef{Qualifier: vi.alias, Column: vi.col}}, true
	}
	// Equality of two tuple variables compares node ids, i.e. keys:
	// $C' = $C becomes c2.id = c1.id (the self-join of Figure 22).
	if c.Op == xtree.OpEQ && !c.Left.IsConst && !c.Right.IsConst {
		lv, lok := f.vars[c.Left.V]
		rv, rok := f.vars[c.Right.V]
		if lok && rok && lv.kind == kindTuple && rv.kind == kindTuple &&
			len(lv.schema.Key) == 1 && len(rv.schema.Key) == 1 {
			return sqlparse.Pred{
				Left:  sqlparse.Expr{Col: sqlparse.ColRef{Qualifier: lv.alias, Column: lv.schema.Columns[lv.schema.Key[0]].Name}},
				Op:    xtree.OpEQ,
				Right: sqlparse.Expr{Col: sqlparse.ColRef{Qualifier: rv.alias, Column: rv.schema.Columns[rv.schema.Key[0]].Name}},
			}, true
		}
	}
	// Object-id selection on a tuple variable pins the key column(s).
	if c.IsIDSelection() {
		vi, ok := f.vars[c.Left.V]
		if ok && vi.kind == kindTuple && len(vi.schema.Key) == 1 {
			return sqlparse.Pred{
				Left:  sqlparse.Expr{Col: sqlparse.ColRef{Qualifier: vi.alias, Column: vi.schema.Columns[vi.schema.Key[0]].Name}},
				Op:    xtree.OpEQ,
				Right: sqlparse.Expr{IsLit: true, Lit: strings.TrimPrefix(c.Right.Const, "&")},
			}, true
		}
		return sqlparse.Pred{}, false
	}
	left, ok := expr(c.Left, c.Right)
	if !ok {
		return sqlparse.Pred{}, false
	}
	right, ok := expr(c.Right, c.Left)
	if !ok {
		return sqlparse.Pred{}, false
	}
	return sqlparse.Pred{Left: left, Op: c.Op, Right: right}, true
}

// idCols returns the columns that determine a variable's node id (for ORDER
// BY pushes: the paper orders by node ids).
func (f *frag) idCols(v xmas.Var) ([]sqlparse.ColRef, bool) {
	vi, ok := f.vars[v]
	if !ok {
		return nil, false
	}
	if vi.kind == kindColumn {
		return []sqlparse.ColRef{{Qualifier: vi.alias, Column: vi.col}}, true
	}
	var out []sqlparse.ColRef
	for _, k := range vi.schema.Key {
		out = append(out, sqlparse.ColRef{Qualifier: vi.alias, Column: vi.schema.Columns[k].Name})
	}
	return out, true
}

// toRelQuery materializes the fragment as a relQuery operator exporting the
// given schema (which must be a subset of the fragment's variables).
func (f *frag) toRelQuery(schema []xmas.Var) xmas.Op {
	sel := &sqlparse.Select{Distinct: f.dist}
	var maps []xmas.VarMap

	colPos := map[string]int{} // "alias.col" -> SELECT position
	addCol := func(alias, col string) int {
		key := alias + "." + col
		if p, ok := colPos[key]; ok {
			return p
		}
		p := len(sel.Cols)
		sel.Cols = append(sel.Cols, sqlparse.ColRef{Qualifier: alias, Column: col})
		colPos[key] = p
		return p
	}

	for _, v := range schema {
		vi, ok := f.vars[v]
		if !ok {
			continue
		}
		if vi.kind == kindColumn {
			var keyCols []int
			for _, k := range vi.schema.Key {
				keyCols = append(keyCols, addCol(vi.alias, vi.schema.Columns[k].Name))
			}
			pos := addCol(vi.alias, vi.col)
			maps = append(maps, xmas.VarMap{
				V:         v,
				ElemLabel: vi.col,
				Cols:      []xmas.ColSpec{{Pos: pos, Label: ""}},
				KeyCols:   keyCols,
			})
			continue
		}
		vm := xmas.VarMap{V: v, ElemLabel: vi.schema.Relation}
		for ci, c := range vi.schema.Columns {
			pos := addCol(vi.alias, c.Name)
			vm.Cols = append(vm.Cols, xmas.ColSpec{Pos: pos, Label: c.Name})
			for _, k := range vi.schema.Key {
				if k == ci {
					vm.KeyCols = append(vm.KeyCols, pos)
				}
			}
		}
		maps = append(maps, vm)
	}

	sel.From = f.from
	sel.Where = f.where
	sel.OrderBy = f.orderBy
	return &xmas.RelQuery{Server: f.server, SQL: sel.String(), Maps: maps}
}

// ---- presorted group-by upgrade ----

// presortGroupBys finds group-bys whose input chain down to a relQuery is
// order-preserving, appends ORDER BY on the group keys (and on the id
// columns of every tuple variable, for deterministic nesting) to the
// relQuery's SQL, and switches the group-by to the stateless presorted
// implementation of Table 1 — reproducing Figure 22's
// "ORDER BY c1.id, o1.orid".
func presortGroupBys(op xmas.Op) xmas.Op {
	out := xmas.MapInputs(op, presortGroupBys)
	gb, ok := out.(*xmas.GroupBy)
	if !ok || gb.Presorted {
		return out
	}
	rq, rebuild := findOrderPreservingRelQuery(gb.In)
	if rq == nil {
		return out
	}
	sorted, ok := addOrderBy(rq, gb.Keys)
	if !ok {
		return out
	}
	c := *gb
	c.In = rebuild(sorted)
	c.Presorted = true
	return &c
}

// findOrderPreservingRelQuery descends through order-preserving unary
// operators (select, crElt, cat, getD, apply) to a relQuery leaf, returning
// it and a function that rebuilds the chain around a replacement.
func findOrderPreservingRelQuery(op xmas.Op) (*xmas.RelQuery, func(xmas.Op) xmas.Op) {
	switch o := op.(type) {
	case *xmas.RelQuery:
		return o, func(r xmas.Op) xmas.Op { return r }
	case *xmas.Select, *xmas.CrElt, *xmas.Cat, *xmas.GetD, *xmas.Apply:
		in, _ := xmas.InputsOf(op)
		rq, rebuild := findOrderPreservingRelQuery(in[0])
		if rq == nil {
			return nil, nil
		}
		return rq, func(r xmas.Op) xmas.Op {
			return op.WithInputs(rebuild(r))
		}
	case *xmas.SemiJoin:
		// A semi-join streams its kept side, preserving its order.
		keepIdx := 0
		if o.Keep == xmas.KeepRight {
			keepIdx = 1
		}
		ins, _ := xmas.InputsOf(op)
		rq, rebuild := findOrderPreservingRelQuery(ins[keepIdx])
		if rq == nil {
			return nil, nil
		}
		return rq, func(r xmas.Op) xmas.Op {
			ins[keepIdx] = rebuild(r)
			return op.WithInputs(ins[0], ins[1])
		}
	}
	return nil, nil
}

// addOrderBy rewrites the relQuery's SQL with ORDER BY on the group keys
// first, then on the id columns of every exported tuple variable.
func addOrderBy(rq *xmas.RelQuery, keys []xmas.Var) (xmas.Op, bool) {
	sel, err := sqlparse.Parse(rq.SQL)
	if err != nil {
		return nil, false
	}
	if len(sel.OrderBy) > 0 {
		// Respect an explicit order; grouping on it is only valid if the
		// keys are a prefix, which we do not check — stay stateful.
		return nil, false
	}
	byVar := map[xmas.Var]xmas.VarMap{}
	for _, m := range rq.Maps {
		byVar[m.V] = m
	}
	seen := map[string]bool{}
	appendCols := func(m xmas.VarMap) bool {
		cols := m.KeyCols
		if len(cols) == 0 {
			return false
		}
		for _, pos := range cols {
			if pos < 0 || pos >= len(sel.Cols) {
				return false
			}
			ref := sel.Cols[pos]
			k := ref.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			sel.OrderBy = append(sel.OrderBy, ref)
		}
		return true
	}
	for _, key := range keys {
		m, ok := byVar[key]
		if !ok {
			return nil, false
		}
		if !appendCols(m) {
			return nil, false
		}
	}
	// Deterministic order inside each group: sort by every other tuple
	// variable's key too (Figure 22 adds o1.orid).
	for _, m := range rq.Maps {
		if len(m.Cols) > 1 { // tuple variables have >1 column
			appendCols(m)
		}
	}
	c := *rq
	c.SQL = sel.String()
	c.Maps = append([]xmas.VarMap{}, rq.Maps...)
	return &c, true
}
