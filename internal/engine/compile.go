package engine

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mix/internal/source"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// Ctx carries per-execution state: the source catalog, optional metrics,
// execution options, the parallel-execution state, and, inside nested
// plans, the partition bindings read by nestedSrc.
type Ctx struct {
	cat     *source.Catalog
	nested  map[xmas.Var]SetVal
	metrics *Metrics
	opts    Options
	// exec budgets producer goroutines and registers async cursors for
	// force-close; always non-nil, sequential by default. Shared by
	// nested/inner contexts so the whole execution draws on one budget.
	exec *execState
	// partial collects sources that dropped out mid-scan under
	// Options.PartialResults (nil under fail-fast); the result loop turns
	// them into annotation elements. Shared by nested/inner contexts and
	// guarded by exec.mu (producer goroutines append concurrently).
	partial *[]*source.SourceUnavailableError
	// hints carries the program's per-scan analysis results (order
	// observability, key constraints) to openCursor; nil unless the catalog
	// holds a coordinator document.
	hints map[*xmas.MkSrc]scanHint
}

// NewCtx builds a top-level execution context over a catalog.
func NewCtx(cat *source.Catalog) *Ctx {
	return &Ctx{cat: cat, exec: newExecState(Options{})}
}

func (c *Ctx) withNested(v xmas.Var, s SetVal) *Ctx {
	child := &Ctx{cat: c.cat, metrics: c.metrics, opts: c.opts, exec: c.exec, partial: c.partial, hints: c.hints, nested: map[xmas.Var]SetVal{}}
	for k, val := range c.nested {
		child.nested[k] = val
	}
	child.nested[v] = s
	return child
}

// noteUnavailable records a mid-scan source loss under the partial-result
// policy; returns false when the policy is off or the error is not a
// source-availability failure (the caller then propagates it).
func (c *Ctx) noteUnavailable(err error) bool {
	if c.partial == nil {
		return false
	}
	var sue *source.SourceUnavailableError
	if !errors.As(err, &sue) {
		return false
	}
	c.exec.mu.Lock()
	*c.partial = append(*c.partial, sue)
	c.exec.mu.Unlock()
	return true
}

// noteAt returns the i-th recorded unavailable-source note, if present.
func (c *Ctx) noteAt(i int) (*source.SourceUnavailableError, bool) {
	if c.partial == nil {
		return nil, false
	}
	c.exec.mu.Lock()
	defer c.exec.mu.Unlock()
	if i >= len(*c.partial) {
		return nil, false
	}
	return (*c.partial)[i], true
}

// compiledOp instantiates a fresh cursor for one operator.
type compiledOp func(ctx *Ctx) Cursor

// compile translates an operator subtree into a cursor factory, resolving
// sources eagerly so bad plans fail before any navigation happens. When the
// execution context carries metrics, every operator's output is counted.
func compile(op xmas.Op, cat *source.Catalog) (compiledOp, error) {
	inner, err := compileRaw(op, cat)
	if err != nil {
		return nil, err
	}
	name := op.Name()
	return func(ctx *Ctx) Cursor {
		cur := inner(ctx)
		if ctx.metrics != nil {
			return &countingCursor{in: cur, c: ctx.metrics.counter(name)}
		}
		return cur
	}, nil
}

func compileRaw(op xmas.Op, cat *source.Catalog) (compiledOp, error) {
	switch o := op.(type) {
	case *xmas.MkSrc:
		return compileMkSrc(o, cat)
	case *xmas.GetD:
		return compileGetD(o, cat)
	case *xmas.Select:
		return compileSelect(o, cat)
	case *xmas.Project:
		return compileProject(o, cat)
	case *xmas.Join:
		return compileJoin(o, cat)
	case *xmas.SemiJoin:
		return compileSemiJoin(o, cat)
	case *xmas.CrElt:
		return compileCrElt(o, cat)
	case *xmas.Cat:
		return compileCat(o, cat)
	case *xmas.GroupBy:
		return compileGroupBy(o, cat)
	case *xmas.Apply:
		return compileApply(o, cat)
	case *xmas.NestedSrc:
		return compileNestedSrc(o)
	case *xmas.RelQuery:
		return compileRelQuery(o, cat)
	case *xmas.OrderBy:
		return compileOrderBy(o, cat)
	case *xmas.Empty:
		return func(*Ctx) Cursor { return emptyCursor{} }, nil
	case *xmas.TD:
		return nil, fmt.Errorf("engine: tD can only appear at a plan root")
	}
	return nil, fmt.Errorf("engine: unsupported operator %T", op)
}

// ---- sources ----

func compileMkSrc(o *xmas.MkSrc, cat *source.Catalog) (compiledOp, error) {
	schema := o.Schema()

	// Naive composition (Figure 13): the "document" is the result of an
	// inner view plan. Executing this form evaluates the view at the
	// mediator — the baseline the rewriter exists to beat (experiment E11).
	if o.In != nil {
		inner, err := Compile(o.In, cat)
		if err != nil {
			return nil, fmt.Errorf("engine: mkSrc(%s) view input: %w", o.SrcID, err)
		}
		return func(ctx *Ctx) Cursor {
			var kids *LazyList[*Elem]
			i := 0
			return cursorFunc(func() (Tuple, bool, error) {
				if kids == nil {
					res := inner.startFrom(ctx)
					kids = res.Root.Kids()
				}
				e, ok := kids.Get(i)
				if !ok {
					return Tuple{}, false, nil
				}
				i++
				return NewTuple(schema, []Value{NodeVal{E: stampElem(e, o.Out)}}), true, nil
			})
		}, nil
	}

	doc, err := cat.Resolve(o.SrcID)
	if err != nil {
		return nil, err
	}
	return func(ctx *Ctx) Cursor {
		var cur source.ElemCursor
		var done bool
		return cursorFunc(func() (Tuple, bool, error) {
			for {
				if done {
					return Tuple{}, false, nil
				}
				if cur == nil {
					c, err := openCursor(ctx, o, doc)
					if err != nil {
						done = true
						if ctx.noteUnavailable(err) {
							return Tuple{}, false, nil
						}
						return Tuple{}, false, err
					}
					cur = c
				}
				n, ok, err := cur.Next()
				if err != nil {
					// Under the partial-result policy a source lost
					// mid-scan ends the scan instead of failing the query;
					// the result loop annotates the truncation. A resilient
					// cursor (a shard fan-out) keeps delivering the
					// surviving members' children, so the scan continues
					// past the note; any other cursor is finished: close it
					// so handles and read-ahead goroutines are released at
					// the point of failure.
					if ctx.noteUnavailable(err) {
						if _, resilient := cur.(source.ResilientCursor); resilient {
							continue
						}
						done = true
						cur.Close()
						return Tuple{}, false, nil
					}
					done = true
					cur.Close()
					return Tuple{}, false, err
				}
				if !ok {
					// Exhausted scans release their cursor immediately
					// rather than waiting for the execution to be
					// abandoned.
					done = true
					cur.Close()
					return Tuple{}, false, nil
				}
				e := FromNode(n).WithProv(&Provenance{
					Var:   o.Out,
					Fixed: []Fixation{{Var: o.Out, ID: string(n.ID)}},
				})
				return NewTuple(schema, []Value{NodeVal{E: e}}), true, nil
			}
		})
	}, nil
}

// openCursor opens a source cursor, describing the scan to the document:
// the execution's batching knobs, whether it runs in parallel, and the
// compile-time scan hints. This is the one place that states "a parallel run
// implies prefetch" — overlapping source access is its point. A scan without
// analysis (fragments, raw Compile callers, catalogs with no coordinator)
// has the zero hint: order assumed observable, no key constraints.
func openCursor(ctx *Ctx, o *xmas.MkSrc, doc source.Doc) (source.ElemCursor, error) {
	par := ctx.exec.parallel()
	h := ctx.hints[o]
	cur, err := doc.Open(source.ScanOpts{
		BatchSize: ctx.opts.BatchSize,
		Prefetch:  ctx.opts.Prefetch || par,
		Parallel:  par,
		Unordered: h.unordered,
		Keys:      h.keys,
	})
	if err != nil {
		return nil, err
	}
	if par {
		// Only a cursor that owns goroutines can be force-closed from
		// Result.Close; a plain one may be mid-Next on a producer goroutine.
		if ac, ok := cur.(source.AsyncCursor); ok {
			ctx.exec.track(ac)
		}
	}
	return cur, nil
}

func compileNestedSrc(o *xmas.NestedSrc) (compiledOp, error) {
	return func(ctx *Ctx) Cursor {
		s, ok := ctx.nested[o.V]
		if !ok {
			return cursorFunc(func() (Tuple, bool, error) {
				return Tuple{}, false, fmt.Errorf("engine: nSrc(%s) evaluated outside apply", o.V)
			})
		}
		return lazySetCursor(s)
	}, nil
}

// ---- navigation ----

func compileGetD(o *xmas.GetD, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	schema := o.Schema()
	return func(ctx *Ctx) Cursor {
		return newVecGetD(ctx, in(ctx), o, schema, ctx.opts.BatchExec)
	}, nil
}

// pathMatches yields the elements pathStream would, but routes through the
// catalog's dataguide label-path index when the execution enables it and the
// element mirrors a registered source node (PathIndex is answer-preserving:
// the guide returns exactly the walk's matches in document order). Wildcard
// steps, constructed elements, virtual list nodes and unregistered trees
// always walk.
func (c *Ctx) pathMatches(root *Elem, path xmas.Path) func() (*Elem, bool) {
	if c.opts.PathIndex && c.cat != nil && root != nil && root.src != nil &&
		len(path) > 0 && !pathHasWildcard(path) {
		if nodes, ok := c.cat.Descend(root.src, []string(path)); ok {
			i := 0
			return func() (*Elem, bool) {
				if i >= len(nodes) {
					return nil, false
				}
				n := nodes[i]
				i++
				return FromNode(n), true
			}
		}
	}
	return pathStream(root, path)
}

func pathHasWildcard(path xmas.Path) bool {
	for _, s := range path {
		if s == xmas.Wildcard {
			return true
		}
	}
	return false
}

// pathStream yields, in document order, every element reachable from root by
// a downward path whose labels spell path — including root's own label as
// the first step (paper operator 2).
func pathStream(root *Elem, path xmas.Path) func() (*Elem, bool) {
	type frame struct {
		e   *Elem
		idx int // path position this frame's element matched
		ki  int // next child to explore
	}
	var stack []frame
	if root != nil && len(path) > 0 && xmas.StepMatches(path[0], root.Label) {
		stack = append(stack, frame{e: root})
	}
	return func() (*Elem, bool) {
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx == len(path)-1 {
				e := f.e
				stack = stack[:len(stack)-1]
				return e, true
			}
			kid, ok := f.e.Kids().Get(f.ki)
			if !ok {
				stack = stack[:len(stack)-1]
				continue
			}
			f.ki++
			if xmas.StepMatches(path[f.idx+1], kid.Label) {
				stack = append(stack, frame{e: kid, idx: f.idx + 1})
			}
		}
		return nil, false
	}
}

// ---- filtering ----

func compileSelect(o *xmas.Select, cat *source.Catalog) (compiledOp, error) {
	// Fusion: a select over a cartesian join becomes the join's condition, so
	// it is evaluated inside the join's gather loop and non-matching pairs
	// are never materialized into an output batch only to be filtered again.
	// Left-major pair order is the same either way, so answers are
	// byte-identical.
	if j, ok := o.In.(*xmas.Join); ok && j.Cond == nil && fusableJoinCond(o.Cond, j) {
		cc := o.Cond
		return compileJoin(&xmas.Join{L: j.L, R: j.R, Cond: &cc}, cat)
	}
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	cond := o.Cond
	return func(ctx *Ctx) Cursor {
		return newVecSelect(in(ctx), cond, ctx.opts.BatchExec)
	}, nil
}

// fusableJoinCond reports whether cond can serve as the join's condition.
// Everything that runs on the nested-loop path (constants, id selections,
// non-equalities) evaluates over the merged schema and is always safe; a
// two-variable equality takes the hash path, which needs its operands on
// opposite sides.
func fusableJoinCond(c xmas.Cond, j *xmas.Join) bool {
	if c.Op != xtree.OpEQ || c.Left.IsConst || c.Right.IsConst {
		return true
	}
	lS, rS := j.L.Schema(), j.R.Schema()
	return (xmas.HasVar(lS, c.Left.V) && xmas.HasVar(rS, c.Right.V)) ||
		(xmas.HasVar(rS, c.Left.V) && xmas.HasVar(lS, c.Right.V))
}

func compileProject(o *xmas.Project, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	vars := o.Vars
	return func(ctx *Ctx) Cursor {
		input := in(ctx)
		seen := map[string]bool{}
		return cursorFunc(func() (Tuple, bool, error) {
			for {
				t, ok, err := input.Next()
				if err != nil || !ok {
					return Tuple{}, false, err
				}
				p := t.Project(vars)
				k := p.Key(vars)
				if seen[k] {
					continue
				}
				seen[k] = true
				return p, true, nil
			}
		})
	}, nil
}

func compileJoin(o *xmas.Join, cat *source.Catalog) (compiledOp, error) {
	left, err := compile(o.L, cat)
	if err != nil {
		return nil, err
	}
	right, err := compile(o.R, cat)
	if err != nil {
		return nil, err
	}
	schema := o.Schema()
	cond := o.Cond
	// A probe side that touches a source runs on a producer goroutine under
	// Parallelism > 1 (decided at compile time, engaged per execution at
	// cursor-construction time): it prefetches while the consumer drains the
	// build side, so two federated inputs cost max() of their latencies.
	lAsync := asyncSide(o.L)

	// Equi-joins on two variables run as hash joins (build right, stream
	// left); everything else is a nested loop over a materialized right.
	if cond != nil && cond.Op == xtree.OpEQ && !cond.Left.IsConst && !cond.Right.IsConst {
		lv, rv := cond.Left.V, cond.Right.V
		// Decide which operand belongs to which branch.
		lSchema := o.L.Schema()
		if !xmas.HasVar(lSchema, lv) {
			lv, rv = rv, lv
		}
		return func(ctx *Ctx) Cursor {
			return newVecHashJoin(ctx, openSide(ctx, left, lAsync), func() Cursor { return right(ctx) }, schema, lv, rv, ctx.opts.BatchExec)
		}, nil
	}

	return func(ctx *Ctx) Cursor {
		return newVecNLJoin(ctx, openSide(ctx, left, lAsync), func() Cursor { return right(ctx) }, schema, cond, ctx.opts.BatchExec)
	}, nil
}

func compileSemiJoin(o *xmas.SemiJoin, cat *source.Catalog) (compiledOp, error) {
	left, err := compile(o.L, cat)
	if err != nil {
		return nil, err
	}
	right, err := compile(o.R, cat)
	if err != nil {
		return nil, err
	}
	keepLeft := o.Keep == xmas.KeepLeft
	cond := o.Cond
	keepSide, otherSide, keepOp := left, right, o.L
	if !keepLeft {
		keepSide, otherSide, keepOp = right, left, o.R
	}
	var keepVar, otherVar xmas.Var
	hashable := false
	if cond != nil && cond.Op == xtree.OpEQ && !cond.Left.IsConst && !cond.Right.IsConst {
		if xmas.HasVar(keepOp.Schema(), cond.Left.V) {
			keepVar, otherVar = cond.Left.V, cond.Right.V
		} else {
			keepVar, otherVar = cond.Right.V, cond.Left.V
		}
		hashable = true
	}
	outSchema := o.Schema()
	keepAsync := asyncSide(keepOp)
	return func(ctx *Ctx) Cursor {
		// The filtering side drains on the first Next; a source-touching kept
		// side prefetches through its exchange meanwhile.
		input := openSide(ctx, keepSide, keepAsync)
		var keys map[joinKey]bool
		var others []Tuple
		loaded := false
		seen := map[string]bool{}
		return cursorFunc(func() (Tuple, bool, error) {
			if !loaded {
				rows, err := drain(otherSide(ctx))
				if err != nil {
					return Tuple{}, false, err
				}
				if hashable {
					keys = map[joinKey]bool{}
					for _, rt := range rows {
						if k, ok := joinKeyOf(rt.MustGet(otherVar)); ok {
							keys[k] = true
						}
					}
				} else {
					others = rows
				}
				loaded = true
			}
			for {
				t, ok, err := input.Next()
				if err != nil || !ok {
					return Tuple{}, false, err
				}
				match := false
				if hashable {
					if k, ok := joinKeyOf(t.MustGet(keepVar)); ok && keys[k] {
						match = true
					}
				} else {
					for _, rt := range others {
						var merged Tuple
						if keepLeft {
							merged = t.Merge(append(append([]xmas.Var{}, t.Schema()...), rt.Schema()...), rt)
						} else {
							merged = rt.Merge(append(append([]xmas.Var{}, rt.Schema()...), t.Schema()...), t)
						}
						if cond == nil || evalCond(*cond, merged) {
							match = true
							break
						}
					}
				}
				if !match {
					continue
				}
				k := t.Key(outSchema)
				if seen[k] {
					continue
				}
				seen[k] = true
				return t, true, nil
			}
		})
	}, nil
}

// ---- construction ----

// skolemID builds the semantically meaningful ids of Figure 7:
// &($V,f(&XYZ123)).
func skolemID(out xmas.Var, fn string, args []string) string {
	return fmt.Sprintf("&(%s,%s(%s))", out, fn, strings.Join(args, ","))
}

// stampList wraps list elements with provenance for the collecting variable
// unless they already carry it (crElt output keeps its richer record).
func stampElem(e *Elem, v xmas.Var) *Elem {
	if e == nil {
		return nil
	}
	if e.Prov != nil && e.Prov.Var == v {
		return e
	}
	return e.WithProv(&Provenance{Var: v, Fixed: []Fixation{{Var: v, ID: e.ID}}})
}

// childListOf resolves a ChildSpec against its bound value into a lazy
// element list.
func childListOf(spec xmas.ChildSpec, val Value) *LazyList[*Elem] {
	if spec.Wrap {
		if e, ok := nodeOf(val); ok {
			return ListOf(stampElem(e, spec.V))
		}
		return ListOf[*Elem]()
	}
	switch x := val.(type) {
	case ListVal:
		i := 0
		return NewLazyList(func() (*Elem, bool) {
			e, ok := x.L.Get(i)
			if !ok {
				return nil, false
			}
			i++
			return e, true
		})
	case NodeVal, *rowRef:
		// A bare element where a list was expected: treat as singleton
		// (tolerant, mirrors the paper's loose figures).
		e, _ := nodeOf(x)
		return ListOf(stampElem(e, spec.V))
	}
	return ListOf[*Elem]()
}

func compileCrElt(o *xmas.CrElt, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	schema := o.Schema()
	return func(ctx *Ctx) Cursor {
		return newVecCrElt(in(ctx), o, schema, ctx.opts.BatchExec)
	}, nil
}

func compileCat(o *xmas.Cat, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	schema := o.Schema()
	async := asyncSide(o.In)
	return func(ctx *Ctx) Cursor {
		// cat itself is cheap; exchanging its input pipelines the upstream
		// source scan with downstream consumption.
		return newVecCat(openSide(ctx, in, async), o, schema, ctx.opts.BatchExec)
	}, nil
}

// ---- grouping ----

func compileGroupBy(o *xmas.GroupBy, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	inSchema := o.In.Schema()
	outSchema := o.Schema()
	keys := o.Keys
	if o.Presorted {
		return func(ctx *Ctx) Cursor {
			return &presortedGroupCursor{
				in: in(ctx), keys: keys,
				inSchema: inSchema, outSchema: outSchema,
			}
		}, nil
	}
	// Stateful group-by: buffers the whole input (paper Section 4: "the
	// stateful gBy makes no such assumptions, and hence needs buffers").
	return func(ctx *Ctx) Cursor {
		input := in(ctx)
		var groups []Tuple
		loaded := false
		pos := 0
		return cursorFunc(func() (Tuple, bool, error) {
			if !loaded {
				rows, err := drain(input)
				if err != nil {
					return Tuple{}, false, err
				}
				index := map[string]int{}
				var order []string
				byKey := map[string][]Tuple{}
				for _, t := range rows {
					k := t.Key(keys)
					if _, ok := index[k]; !ok {
						index[k] = len(order)
						order = append(order, k)
					}
					byKey[k] = append(byKey[k], t)
				}
				for _, k := range order {
					part := byKey[k]
					vals := make([]Value, 0, len(outSchema))
					for _, kv := range keys {
						vals = append(vals, part[0].MustGet(kv))
					}
					vals = append(vals, SetVal{Schema: inSchema, Tuples: ListOf(part...)})
					groups = append(groups, NewTuple(outSchema, vals))
				}
				loaded = true
			}
			if pos >= len(groups) {
				return Tuple{}, false, nil
			}
			g := groups[pos]
			pos++
			return g, true, nil
		})
	}, nil
}

// presortedGroupCursor is the stateless group-by of paper Table 1: it
// assumes the input arrives sorted on the group-by variables and streams one
// group at a time. Advancing to the next group before the current partition
// is consumed forces the remainder of the partition (the r(⟨binding...⟩)
// loop of Table 1 performs the same pulls).
type presortedGroupCursor struct {
	in        Cursor
	keys      []xmas.Var
	inSchema  []xmas.Var
	outSchema []xmas.Var

	pending    Tuple
	hasPending bool
	done       bool
	err        error // the input failed inside a partition; the next Next reports it
	current    *LazyList[Tuple]
}

func (g *presortedGroupCursor) Next() (Tuple, bool, error) {
	// Finish the previous partition so the shared input cursor is
	// positioned at the next group.
	if g.current != nil {
		g.current.Len()
		g.current = nil
	}
	// A partition is a list and has nowhere to put an error: whether the
	// consumer's navigation or the forcing above ran into it, the group and
	// the tuples delivered so far stand, and the error ends the stream here.
	if g.err != nil {
		return Tuple{}, false, g.err
	}
	if g.done {
		return Tuple{}, false, nil
	}
	var first Tuple
	if g.hasPending {
		first = g.pending
		g.hasPending = false
	} else {
		t, ok, err := g.in.Next()
		if err != nil {
			return Tuple{}, false, err
		}
		if !ok {
			g.done = true
			return Tuple{}, false, nil
		}
		first = t
	}
	key := first.Key(g.keys)
	emittedFirst := false
	part := NewLazyList(func() (Tuple, bool) {
		if !emittedFirst {
			emittedFirst = true
			return first, true
		}
		if g.hasPending || g.done {
			return Tuple{}, false
		}
		t, ok, err := g.in.Next()
		if err != nil || !ok {
			g.err = err
			g.done = true
			return Tuple{}, false
		}
		if t.Key(g.keys) != key {
			g.pending = t
			g.hasPending = true
			return Tuple{}, false
		}
		return t, true
	})
	g.current = part
	if g.hasPending && g.done {
		g.done = false
	}
	vals := make([]Value, 0, len(g.outSchema))
	for _, kv := range g.keys {
		vals = append(vals, first.MustGet(kv))
	}
	vals = append(vals, SetVal{Schema: g.inSchema, Tuples: part})
	// done flag may have been set by the partition producer; groups keep
	// flowing until the input is exhausted AND no pending tuple remains.
	if g.done && g.hasPending {
		g.done = false
	}
	return NewTuple(g.outSchema, vals), true, nil
}

// ---- nested plans ----

func compileApply(o *xmas.Apply, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	td, ok := o.Plan.(*xmas.TD)
	if !ok {
		return nil, fmt.Errorf("engine: nested plan of apply must end in tD, got %s", o.Plan.Name())
	}
	nestedIn, err := compile(td.In, cat)
	if err != nil {
		return nil, err
	}
	collectVar := td.V
	schema := o.Schema()
	return func(ctx *Ctx) Cursor {
		return newVecApply(ctx, in(ctx), o, nestedIn, collectVar, schema, ctx.opts.BatchExec)
	}, nil
}

// applyList evaluates the nested plan over one partition and collects the
// bindings of the collect variable into a lazy, id-deduplicated element list.
func applyList(ctx *Ctx, inpVar xmas.Var, part SetVal, nestedIn compiledOp, collectVar xmas.Var) *LazyList[*Elem] {
	nctx := ctx.withNested(inpVar, part)
	var cur Cursor
	seen := map[string]bool{}
	var pending *LazyList[*Elem]
	pendingIdx := 0
	return NewLazyList(func() (*Elem, bool) {
		if cur == nil {
			cur = nestedIn(nctx)
		}
		for {
			// Drain a list-valued binding first (a nested query's
			// result flattens into the collected sequence).
			if pending != nil {
				if e, ok := pending.Get(pendingIdx); ok {
					pendingIdx++
					e = stampElem(e, collectVar)
					if e.ID != "" {
						if seen[e.ID] {
							continue
						}
						seen[e.ID] = true
					}
					return e, true
				}
				pending = nil
			}
			nt, ok, err := cur.Next()
			if err != nil || !ok {
				return nil, false
			}
			switch v := nt.MustGet(collectVar).(type) {
			case NodeVal, *rowRef:
				e, _ := nodeOf(v)
				if e == nil {
					continue
				}
				e = stampElem(e, collectVar)
				if e.ID != "" {
					if seen[e.ID] {
						continue
					}
					seen[e.ID] = true
				}
				return e, true
			case ListVal:
				pending = v.L
				pendingIdx = 0
			}
		}
	})
}

// ---- ordering ----

func compileOrderBy(o *xmas.OrderBy, cat *source.Catalog) (compiledOp, error) {
	in, err := compile(o.In, cat)
	if err != nil {
		return nil, err
	}
	vars := o.Vars
	return func(ctx *Ctx) Cursor {
		input := in(ctx)
		var rows []Tuple
		loaded := false
		pos := 0
		return cursorFunc(func() (Tuple, bool, error) {
			if !loaded {
				r, err := drain(input)
				if err != nil {
					return Tuple{}, false, err
				}
				rows = r
				sort.SliceStable(rows, func(i, j int) bool {
					for _, v := range vars {
						a := orderKey(rows[i].MustGet(v))
						b := orderKey(rows[j].MustGet(v))
						if a != b {
							return a < b
						}
					}
					return false
				})
				loaded = true
			}
			if pos >= len(rows) {
				return Tuple{}, false, nil
			}
			t := rows[pos]
			pos++
			return t, true, nil
		})
	}, nil
}
