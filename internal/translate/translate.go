// Package translate turns an XQuery-subset AST into an XMAS algebra plan,
// following the three-step translation at the end of paper Section 3:
//
//  1. Each FOR subclause contributes a getD (over a mkSrc for document
//     sources, or spliced into the expression binding the range variable).
//  2. Each WHERE conjunct becomes a select when its variables live in one
//     expression of the current set, or a join combining two expressions;
//     leftover expressions are combined with a cartesian product.
//  3. The RETURN clause becomes crElt/cat/gBy/apply operators; a final tD
//     exports the result document.
//
// The worked example: the Figure 3 query translates to exactly the Figure 6
// plan (see the golden test TestFigure6Plan).
package translate

import (
	"fmt"

	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// Result is a translated query.
type Result struct {
	// Plan is the full XMAS plan, rooted at a tD operator.
	Plan xmas.Op
	// RootVar is the variable the tD collects (one result root child per
	// binding of it).
	RootVar xmas.Var
	// Tags maps each variable to the element label its bindings carry
	// (the last label of the path that bound it). Decontextualization
	// needs the tag of the provenance variable.
	Tags map[xmas.Var]string
}

// Translate compiles q. resultRootID becomes the object id of the exported
// result root (the paper uses "rootv" for the view). In debug mode
// (xmas.SetDebug, MIXDEBUG env) the plan is validated here; otherwise the
// rewriter validates it on entry and engine.Compile verifies it.
func Translate(q *xquery.Query, resultRootID string) (*Result, error) {
	t := &translator{
		tags:  map[xmas.Var]string{},
		names: map[string]int{},
	}
	op, rootVar, err := t.query(q, nil)
	if err != nil {
		return nil, err
	}
	plan := &xmas.TD{In: op, V: rootVar, RootID: resultRootID}
	if xmas.DebugEnabled() {
		if err := xmas.Validate(plan); err != nil {
			return nil, fmt.Errorf("translate: produced invalid plan: %w", err)
		}
	}
	return &Result{Plan: plan, RootVar: rootVar, Tags: t.tags}, nil
}

// MustTranslate panics on error; for tests and fixtures.
func MustTranslate(q *xquery.Query, resultRootID string) *Result {
	r, err := Translate(q, resultRootID)
	if err != nil {
		panic(err)
	}
	return r
}

// expr is one member of the translation's "current set of expressions".
type expr struct {
	op   xmas.Op
	vars map[xmas.Var]bool
}

func (e *expr) has(v xmas.Var) bool { return e.vars[v] }

type translator struct {
	tags  map[xmas.Var]string
	names map[string]int
	nTemp int // counter for the $1, $2, ... WHERE temporaries
}

// fresh returns "$<prefix>" the first time, then "$<prefix>2", ...
func (t *translator) fresh(prefix string) xmas.Var {
	t.names[prefix]++
	if t.names[prefix] == 1 {
		return xmas.Var("$" + prefix)
	}
	return xmas.Var(fmt.Sprintf("$%s%d", prefix, t.names[prefix]))
}

// freshTemp returns the next numeric temporary ($1, $2, ...).
func (t *translator) freshTemp() xmas.Var {
	t.nTemp++
	return xmas.Var(fmt.Sprintf("$%d", t.nTemp))
}

// skolem returns successive skolem function symbols f, g, h, f4, f5, ...
func (t *translator) skolem() string {
	t.names["#skolem"]++
	n := t.names["#skolem"]
	if n <= 3 {
		return string(rune('f' + n - 1))
	}
	return fmt.Sprintf("f%d", n)
}

// query translates one FOR-WHERE-RETURN block. outer is non-nil for nested
// queries inside RETURN: it supplies the expression carrying the outer
// variables (a nestedSrc-based expression).
func (t *translator) query(q *xquery.Query, outer *expr) (xmas.Op, xmas.Var, error) {
	if len(q.For) == 0 {
		return nil, "", fmt.Errorf("translate: query has no FOR clause")
	}
	exprs, err := t.forClause(q.For, outer)
	if err != nil {
		return nil, "", err
	}
	combined, err := t.whereClause(q.Where, exprs)
	if err != nil {
		return nil, "", err
	}
	if len(q.OrderBy) > 0 {
		vars := make([]xmas.Var, len(q.OrderBy))
		for i, v := range q.OrderBy {
			vars[i] = xmas.Var(v)
			if !combined.has(vars[i]) {
				return nil, "", fmt.Errorf("translate: ORDER BY references unbound %s", v)
			}
		}
		combined.op = &xmas.OrderBy{In: combined.op, Vars: vars}
	}
	return t.returnClause(q.Return, combined)
}

// forClause implements translation step 1.
func (t *translator) forClause(bindings []xquery.ForBinding, outer *expr) ([]*expr, error) {
	var exprs []*expr
	if outer != nil {
		exprs = append(exprs, outer)
	}
	for _, fb := range bindings {
		v := xmas.Var(fb.Var)
		switch {
		case fb.Source != "":
			z := t.fresh("doc")
			src := &xmas.MkSrc{SrcID: fb.Source, Out: z}
			path := xmas.Path(fb.Path)
			getd := &xmas.GetD{In: src, From: z, Path: path, Out: v}
			t.tags[v] = path[len(path)-1]
			exprs = append(exprs, &expr{op: getd, vars: map[xmas.Var]bool{z: true, v: true}})
		case fb.FromVar != "":
			from := xmas.Var(fb.FromVar)
			host := findExpr(exprs, from)
			if host == nil {
				return nil, fmt.Errorf("translate: FOR variable %s ranges over unbound %s", fb.Var, fb.FromVar)
			}
			tag, ok := t.tags[from]
			if !ok {
				return nil, fmt.Errorf("translate: no label known for %s", fb.FromVar)
			}
			path := xmas.Path(fb.Path).Prepend(tag)
			host.op = &xmas.GetD{In: host.op, From: from, Path: path, Out: v}
			host.vars[v] = true
			t.tags[v] = path[len(path)-1]
		default:
			return nil, fmt.Errorf("translate: FOR binding for %s has no source", fb.Var)
		}
	}
	return exprs, nil
}

// findExpr returns the expression whose schema contains v, or nil.
func findExpr(exprs []*expr, v xmas.Var) *expr {
	for _, e := range exprs {
		if e.has(v) {
			return e
		}
	}
	return nil
}

// operand resolves one WHERE operand to an xmas operand, adding getD
// operators for path operands (the $1, $2 temporaries of Figure 6).
func (t *translator) operand(o xquery.Operand, exprs []*expr) (xmas.Operand, *expr, error) {
	if o.IsConst {
		return xmas.ConstOperand(o.Const), nil, nil
	}
	v := xmas.Var(o.Var)
	host := findExpr(exprs, v)
	if host == nil {
		return xmas.Operand{}, nil, fmt.Errorf("translate: WHERE references unbound %s", o.Var)
	}
	if len(o.Path) == 0 {
		return xmas.VarOperand(v), host, nil
	}
	tag, ok := t.tags[v]
	if !ok {
		return xmas.Operand{}, nil, fmt.Errorf("translate: no label known for %s", o.Var)
	}
	tmp := t.freshTemp()
	path := xmas.Path(o.Path).Prepend(tag)
	host.op = &xmas.GetD{In: host.op, From: v, Path: path, Out: tmp}
	host.vars[tmp] = true
	t.tags[tmp] = path[len(path)-1]
	return xmas.VarOperand(tmp), host, nil
}

// whereClause implements translation step 2 and returns the single combined
// expression.
func (t *translator) whereClause(conds []xquery.Condition, exprs []*expr) (*expr, error) {
	for _, c := range conds {
		left, lhost, err := t.operand(c.Left, exprs)
		if err != nil {
			return nil, err
		}
		right, rhost, err := t.operand(c.Right, exprs)
		if err != nil {
			return nil, err
		}
		cond := xmas.Cond{Left: left, Op: c.Op, Right: right}
		switch {
		case lhost == nil && rhost == nil:
			return nil, fmt.Errorf("translate: condition %s compares two constants", cond)
		case lhost != nil && rhost != nil && lhost != rhost:
			// Variables in different expressions: join them.
			join := &xmas.Join{L: lhost.op, R: rhost.op, Cond: &cond}
			merged := &expr{op: join, vars: map[xmas.Var]bool{}}
			for v := range lhost.vars {
				merged.vars[v] = true
			}
			for v := range rhost.vars {
				merged.vars[v] = true
			}
			exprs = replaceExprs(exprs, lhost, rhost, merged)
		default:
			host := lhost
			if host == nil {
				host = rhost
			}
			host.op = &xmas.Select{In: host.op, Cond: cond}
		}
	}
	// Combine leftovers with cartesian products.
	for len(exprs) > 1 {
		merged := &expr{op: &xmas.Join{L: exprs[0].op, R: exprs[1].op}, vars: map[xmas.Var]bool{}}
		for v := range exprs[0].vars {
			merged.vars[v] = true
		}
		for v := range exprs[1].vars {
			merged.vars[v] = true
		}
		exprs = replaceExprs(exprs, exprs[0], exprs[1], merged)
	}
	return exprs[0], nil
}

func replaceExprs(exprs []*expr, a, b, merged *expr) []*expr {
	out := exprs[:0]
	for _, e := range exprs {
		if e != a && e != b {
			out = append(out, e)
		}
	}
	return append(out, merged)
}

// returnClause implements translation step 3.
func (t *translator) returnClause(el xquery.Element, in *expr) (xmas.Op, xmas.Var, error) {
	switch x := el.(type) {
	case *xquery.VarRef:
		v := xmas.Var(x.Var)
		if !in.has(v) {
			return nil, "", fmt.Errorf("translate: RETURN references unbound %s", x.Var)
		}
		return in.op, v, nil
	case *xquery.ElemCtor:
		return t.buildCtor(x, in)
	}
	return nil, "", fmt.Errorf("translate: unsupported RETURN element %T", el)
}

// contribution is a per-tuple content item of a constructor.
type contribution struct {
	v      xmas.Var
	isList bool // true when v is bound to a list element (apply results)
	keyVar bool // true when v is (or depends only on) a group-by key
}

// buildCtor translates one element constructor over the expression in.
// It returns the updated expression-op and the variable bound to the
// constructed element.
func (t *translator) buildCtor(ctor *xquery.ElemCtor, in *expr) (xmas.Op, xmas.Var, error) {
	op := in.op

	// 1. Translate every child into a per-tuple contribution.
	contribs := make([]contribution, 0, len(ctor.Children))
	for _, child := range ctor.Children {
		switch c := child.(type) {
		case *xquery.VarRef:
			v := xmas.Var(c.Var)
			if !in.has(v) {
				return nil, "", fmt.Errorf("translate: constructor <%s> references unbound %s", ctor.Label, c.Var)
			}
			contribs = append(contribs, contribution{v: v})
		case *xquery.ElemCtor:
			in.op = op
			newOp, v, err := t.buildCtor(c, in)
			if err != nil {
				return nil, "", err
			}
			op = newOp
			in.op = op
			in.vars[v] = true
			contribs = append(contribs, contribution{v: v})
		case *xquery.Query:
			in.op = op
			newOp, v, err := t.nestedQuery(c, in)
			if err != nil {
				return nil, "", err
			}
			op = newOp
			in.op = op
			in.vars[v] = true
			contribs = append(contribs, contribution{v: v, isList: true})
		default:
			return nil, "", fmt.Errorf("translate: unsupported content %T in <%s>", child, ctor.Label)
		}
	}

	// 2. Decide whether this constructor groups. Grouping is needed when a
	// group-by list is present and some contribution varies within a group
	// (is not itself a key).
	keys := make([]xmas.Var, len(ctor.GroupBy))
	keySet := map[xmas.Var]bool{}
	for i, g := range ctor.GroupBy {
		keys[i] = xmas.Var(g)
		keySet[keys[i]] = true
		if !in.has(keys[i]) {
			return nil, "", fmt.Errorf("translate: group-by variable %s of <%s> is unbound", g, ctor.Label)
		}
	}
	needsGroup := false
	if len(keys) > 0 {
		for _, c := range contribs {
			if !keySet[c.v] {
				needsGroup = true
				break
			}
		}
	}

	var out xmas.Var
	if !needsGroup {
		// One element per tuple, skolemized by the group-by list (or, with
		// no list, by every variable in scope so each tuple's element is
		// distinct).
		skolemArgs := keys
		if len(skolemArgs) == 0 {
			skolemArgs = inVarsSorted(in)
		}
		children, newOp, err := t.concatContribs(op, contribs)
		if err != nil {
			return nil, "", err
		}
		op = newOp
		out = t.fresh("V")
		op = &xmas.CrElt{
			In: op, Label: ctor.Label, SkolemFn: t.skolem(),
			GroupVars: skolemArgs, Children: children, Out: out,
		}
		in.op = op
		in.vars[out] = true
		t.tags[out] = ctor.Label
		return op, out, nil
	}

	// 3. Grouped constructor: gBy on the keys, then collect each varying
	// contribution with an apply over the partition.
	partVars := op.Schema()
	part := t.fresh("X")
	op = &xmas.GroupBy{In: op, Keys: keys, Out: part}
	in.vars = map[xmas.Var]bool{part: true}
	for _, k := range keys {
		in.vars[k] = true
	}

	collected := make([]contribution, len(contribs))
	for i, c := range contribs {
		if keySet[c.v] {
			collected[i] = c
			collected[i].keyVar = true
			continue
		}
		lv := t.fresh("Z")
		nested := &xmas.TD{In: &xmas.NestedSrc{V: part, Vars: partVars}, V: c.v}
		op = &xmas.Apply{In: op, Plan: nested, InpVar: part, Out: lv}
		in.vars[lv] = true
		collected[i] = contribution{v: lv, isList: true}
	}
	in.op = op

	children, newOp, err := t.concatContribs(op, collected)
	if err != nil {
		return nil, "", err
	}
	op = newOp
	out = t.fresh("V")
	op = &xmas.CrElt{
		In: op, Label: ctor.Label, SkolemFn: t.skolem(),
		GroupVars: keys, Children: children, Out: out,
	}
	in.op = op
	in.vars[out] = true
	t.tags[out] = ctor.Label
	return op, out, nil
}

// concatContribs reduces the ordered contributions to a single ChildSpec for
// crElt, inserting cat operators as needed. A single contribution passes
// through directly (wrapped when it is a single element).
func (t *translator) concatContribs(op xmas.Op, contribs []contribution) (xmas.ChildSpec, xmas.Op, error) {
	if len(contribs) == 0 {
		return xmas.ChildSpec{}, nil, fmt.Errorf("translate: constructor with no content")
	}
	cur := xmas.ChildSpec{V: contribs[0].v, Wrap: !contribs[0].isList}
	for _, c := range contribs[1:] {
		next := xmas.ChildSpec{V: c.v, Wrap: !c.isList}
		w := t.fresh("W")
		op = &xmas.Cat{In: op, X: cur, Y: next, Out: w}
		cur = xmas.ChildSpec{V: w}
	}
	return cur, op, nil
}

// nestedQuery translates a FOR-WHERE-RETURN block appearing inside a
// constructor: the outer tuples are grouped into singleton-equivalent
// partitions (gBy on every variable) and the nested plan runs per partition
// via apply, reading the outer bindings through a nestedSrc.
func (t *translator) nestedQuery(q *xquery.Query, in *expr) (xmas.Op, xmas.Var, error) {
	op := in.op
	allVars := op.Schema()
	part := t.fresh("X")
	op = &xmas.GroupBy{In: op, Keys: allVars, Out: part}

	outerExpr := &expr{op: &xmas.NestedSrc{V: part, Vars: allVars}, vars: map[xmas.Var]bool{}}
	for _, v := range allVars {
		outerExpr.vars[v] = true
	}
	nestedOp, rootVar, err := t.query(q, outerExpr)
	if err != nil {
		return nil, "", err
	}
	nested := &xmas.TD{In: nestedOp, V: rootVar}

	out := t.fresh("Z")
	op = &xmas.Apply{In: op, Plan: nested, InpVar: part, Out: out}

	in.op = op
	newVars := map[xmas.Var]bool{part: true, out: true}
	for _, v := range allVars {
		newVars[v] = true
	}
	in.vars = newVars
	return op, out, nil
}

func inVarsSorted(in *expr) []xmas.Var {
	// Use the op's schema order for determinism.
	var out []xmas.Var
	for _, v := range in.op.Schema() {
		if in.vars[v] {
			out = append(out, v)
		}
	}
	return out
}

var _ = xtree.OpEQ // keep xtree imported for condition operators
