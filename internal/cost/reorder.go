package cost

import (
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

const (
	// maxRegionLeaves bounds the join regions the reorderer will touch at
	// all; larger regions keep their syntactic order.
	maxRegionLeaves = 8
	// maxTailLeaves bounds the permutable suffix: 5! = 120 candidate orders
	// per region, each costed by one sqlgen push + one estimator pass.
	maxTailLeaves = 5
	// acceptFactor is how much cheaper a candidate must be before it
	// replaces the syntactic order. The margin keeps ties (and estimates
	// within noise of each other) on the syntactic plan, so CostOpt changes
	// nothing unless the model sees a real difference.
	acceptFactor = 0.99
)

// Reorder is the cost-based join reorderer. It finds every join region in
// the plan — a maximal cluster of join operators and the selections sitting
// on them — and replaces the region with the cheapest answer-identical
// order the cost model can find, judging candidates by what they will
// actually cost after SQL pushdown (each candidate is pushed through
// sqlgen and estimated in round trips + tuples shipped).
//
// Answer preservation: a join tree over leaves l1..ln emits tuples in
// lexicographic order of the leaf positions, so only the left-to-right
// leaf sequence is observable — never the tree shape. xmas.OrderDemand
// reports which variables' order can reach the result; leaves up to and
// including the last one binding a demanded variable stay as an unchanged
// prefix, and only the trailing all-free leaves are permuted. Within a
// block of tuples that agree on every prefix position, all carrying
// projections are identical, so permuting the tail reorders tuples only
// inside blocks the result cannot distinguish. Condition placement is free
// under bag semantics: the surviving combinations, and their lexicographic
// order, do not depend on where along the spine each filter runs.
//
// When no candidate beats the syntactic order by acceptFactor, the
// original plan is returned unchanged (pointer-identical), so CostOpt off
// versus "on but no win" produce byte-identical downstream plans.
//
// Semi-join chains are left alone: sqlgen.Push itself applies every filter
// the base's own server can answer first, whatever the chain's order.
func Reorder(plan xmas.Op, cat *source.Catalog, batch int) xmas.Op {
	est := &Estimator{Cat: cat, Batch: batch}
	out := plan
	// Regions are revisited by pre-order position: replacing region i keeps
	// it at position i in the rebuilt plan, so the cursor only advances.
	for i := 0; ; i++ {
		regions := joinRegions(out)
		if i >= len(regions) {
			return out
		}
		if repl, ok := reorderRegion(out, regions[i], est, cat); ok {
			out = substitute(out, regions[i], repl)
		}
	}
}

// chainsToJoin reports whether op is a join or a chain of selections over
// one — the spine shape that makes it part of a join region.
func chainsToJoin(op xmas.Op) bool {
	for {
		switch x := op.(type) {
		case *xmas.Join:
			return true
		case *xmas.Select:
			op = x.In
		default:
			return false
		}
	}
}

// joinRegions returns the root of every maximal join region (a join/select
// cluster) in pre-order, nested apply and view plans included.
func joinRegions(root xmas.Op) []xmas.Op {
	var out []xmas.Op
	var visit func(op xmas.Op, covered bool)
	visit = func(op xmas.Op, covered bool) {
		if op == nil {
			return
		}
		switch x := op.(type) {
		case *xmas.Join:
			if !covered {
				out = append(out, op)
			}
			visit(x.L, true)
			visit(x.R, true)
			return
		case *xmas.Select:
			if chainsToJoin(x) {
				if !covered {
					out = append(out, op)
				}
				visit(x.In, true)
				return
			}
			visit(x.In, false)
			return
		}
		if a, ok := op.(*xmas.Apply); ok {
			visit(a.Plan, false)
		}
		ins, n := xmas.InputsOf(op)
		for _, in := range ins[:n] {
			visit(in, false)
		}
	}
	visit(root, false)
	return out
}

// flatten decomposes a region into its leaves (left-to-right) and the
// conditions attached along its spine. A selection sitting directly on a
// leaf stays glued to the leaf; only selections over join spines are
// lifted into the condition pool.
func flatten(op xmas.Op, leaves *[]xmas.Op, conds *[]xmas.Cond) {
	switch x := op.(type) {
	case *xmas.Join:
		if x.Cond != nil {
			*conds = append(*conds, *x.Cond)
		}
		flatten(x.L, leaves, conds)
		flatten(x.R, leaves, conds)
	case *xmas.Select:
		if chainsToJoin(x.In) {
			*conds = append(*conds, x.Cond)
			flatten(x.In, leaves, conds)
			return
		}
		*leaves = append(*leaves, x)
	default:
		*leaves = append(*leaves, op)
	}
}

// reorderRegion evaluates every safe leaf order for one region against the
// whole plan's pushed cost and returns the winning rebuilt region, or
// ok=false to keep the syntactic one.
func reorderRegion(whole, region xmas.Op, est *Estimator, cat *source.Catalog) (xmas.Op, bool) {
	var leaves []xmas.Op
	var conds []xmas.Cond
	flatten(region, &leaves, &conds)
	if len(leaves) < 2 || len(leaves) > maxRegionLeaves {
		return nil, false
	}

	// Order analysis: which leaves bind order-carrying variables?
	demand := xmas.OrderDemand(whole)[region]
	lastCarry := -1
	for i, lf := range leaves {
		for _, v := range lf.Schema() {
			if demand[v] {
				lastCarry = i
				break
			}
		}
	}
	prefix, tail := leaves[:lastCarry+1], leaves[lastCarry+1:]
	if len(tail) < 2 || len(tail) > maxTailLeaves {
		return nil, false
	}

	baseCost, ok := pushedCost(whole, est, cat)
	if !ok {
		return nil, false
	}

	var best xmas.Op
	bestCost := baseCost * acceptFactor
	permute(tail, func(order []xmas.Op) {
		cand := buildLeftDeep(append(append([]xmas.Op{}, prefix...), order...), conds)
		c, ok := pushedCost(substitute(whole, region, cand), est, cat)
		if ok && c < bestCost {
			best, bestCost = cand, c
		}
	})
	if best == nil {
		return nil, false
	}
	return best, true
}

// pushedCost runs the real SQL pushdown on the plan and prices the result,
// so candidate comparison sees exactly the rewrites pushdown will apply —
// in particular, a leaf order that lets two same-server leaves merge into
// one query is credited with shipping the join result instead of both
// tables.
func pushedCost(plan xmas.Op, est *Estimator, cat *source.Catalog) (float64, bool) {
	pushed, err := sqlgen.Push(plan, cat)
	if err != nil {
		return 0, false
	}
	return est.Plan(pushed).Cost(), true
}

// buildLeftDeep rebuilds a region as a left-deep join spine over leaves in
// the given order. Each condition runs at the lowest point where its
// variables are bound: single-leaf conditions wrap the leaf before it
// joins, the first bindable equality becomes the join condition (feeding
// the engine's hash path), and the rest become selections on the join.
func buildLeftDeep(leaves []xmas.Op, conds []xmas.Cond) xmas.Op {
	used := make([]bool, len(conds))
	bound := map[xmas.Var]bool{}

	bindable := func(c xmas.Cond, in map[xmas.Var]bool) bool {
		for _, v := range c.Vars() {
			if !in[v] {
				return false
			}
		}
		return true
	}

	var cur xmas.Op
	for _, lf := range leaves {
		lfVars := map[xmas.Var]bool{}
		for _, v := range lf.Schema() {
			lfVars[v] = true
			bound[v] = true
		}
		// Selections answerable by this leaf alone run under the join.
		for i, c := range conds {
			if !used[i] && bindable(c, lfVars) {
				used[i] = true
				lf = &xmas.Select{In: lf, Cond: c}
			}
		}
		if cur == nil {
			cur = lf
			continue
		}
		// Join condition: prefer an equality (hash join), else any
		// bindable comparison; the remainder become selections on top.
		var jc *xmas.Cond
		pick := func(eqOnly bool) {
			for i, c := range conds {
				if used[i] || !bindable(c, bound) || (eqOnly && c.Op != xtree.OpEQ) {
					continue
				}
				used[i] = true
				cc := c
				jc = &cc
				return
			}
		}
		pick(true)
		if jc == nil {
			pick(false)
		}
		cur = &xmas.Join{L: cur, R: lf, Cond: jc}
		for i, c := range conds {
			if !used[i] && bindable(c, bound) {
				used[i] = true
				cur = &xmas.Select{In: cur, Cond: c}
			}
		}
	}
	return cur
}

// permute calls fn with every non-identity permutation of items, in a
// deterministic order. items itself is never handed to fn aliased — each
// call gets a fresh slice.
func permute(items []xmas.Op, fn func([]xmas.Op)) {
	n := len(items)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var rec func(k int)
	identity := true
	rec = func(k int) {
		if k == n {
			if identity {
				identity = false // skip the first (identity) permutation
				return
			}
			out := make([]xmas.Op, n)
			for i, j := range idx {
				out[i] = items[j]
			}
			fn(out)
			return
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			rec(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	rec(0)
}

// substitute returns root with the target node (by identity) replaced,
// rebuilding only the spine above it; untouched subtrees are shared.
func substitute(root, target, repl xmas.Op) xmas.Op {
	if root == target {
		return repl
	}
	return xmas.MapInputs(root, func(in xmas.Op) xmas.Op { return substitute(in, target, repl) })
}
