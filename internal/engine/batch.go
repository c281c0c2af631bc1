package engine

import (
	"fmt"

	"mix/internal/relstore"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// This file holds the operator bodies of getD, select, hash and nested-loop
// join, cat, crElt and apply: each moves bindings in small columnar chunks of
// up to Options.BatchExec rows. Every such cursor still answers Next(), so
// laziness, first-answer latency and the root result loop see the plain
// cursor contract. An operator whose input cannot produce batches adapts it
// with a tuple-at-a-time pull loop (batchInput), which is how project,
// groupBy, orderBy, semiJoin and the parallel exchange cursors — none of which
// has a columnar body — sit in the same pipeline.
//
// The adaptive window is the proven shape from the wire layer's batchWindow:
// a cursor consumed through its scalar face (Next) pulls its first batch with
// n=1 (the first answer ships alone), then doubles toward the BatchExec cap
// while demand continues. Interior batch-to-batch edges pass the requested
// size straight through, so one execution has a single window — the one at
// the consumption root — rather than multiplicatively shrinking ones. A cap
// of 1 (navigation sessions) never grows the window: every pull asks every
// source for exactly one more binding.

// Batch is a columnar chunk of tuples: cols[c][r] is the value of schema[c]
// in row r. All columns have length n.
type Batch struct {
	schema []xmas.Var
	cols   [][]Value
	n      int
}

// Len returns the number of rows.
func (b Batch) Len() int { return b.n }

// Row gathers row r into a Tuple (one slice allocation — the boundary cost
// back to the scalar world).
func (b Batch) Row(r int) Tuple {
	vals := make([]Value, len(b.cols))
	for c := range b.cols {
		vals[c] = b.cols[c][r]
	}
	return Tuple{schema: b.schema, vals: vals}
}

// slice returns rows [lo,hi) sharing column storage with b.
func (b Batch) slice(lo, hi int) Batch {
	cols := make([][]Value, len(b.cols))
	for c := range b.cols {
		cols[c] = b.cols[c][lo:hi]
	}
	return Batch{schema: b.schema, cols: cols, n: hi - lo}
}

// gather returns the rows named by sel, in sel order.
func (b Batch) gather(sel []int) Batch {
	cols := make([][]Value, len(b.cols))
	for c := range b.cols {
		src := b.cols[c]
		dst := make([]Value, len(sel))
		for i, r := range sel {
			dst[i] = src[r]
		}
		cols[c] = dst
	}
	return Batch{schema: b.schema, cols: cols, n: len(sel)}
}

// colIndex returns the column index of v in b's schema, or -1.
func (b Batch) colIndex(v xmas.Var) int {
	for i, s := range b.schema {
		if s == v {
			return i
		}
	}
	return -1
}

// batchBuilder accumulates tuples into a columnar batch (the scalar→batch
// adapter's staging area).
type batchBuilder struct {
	schema []xmas.Var
	cols   [][]Value
	n      int
}

func (bb *batchBuilder) add(t Tuple) {
	if bb.cols == nil {
		bb.schema = t.schema
		bb.cols = make([][]Value, len(t.schema))
	}
	for c := range bb.cols {
		bb.cols[c] = append(bb.cols[c], t.vals[c])
	}
	bb.n++
}

func (bb *batchBuilder) batch() Batch {
	return Batch{schema: bb.schema, cols: bb.cols, n: bb.n}
}

// BatchCursor is the batch face of the cursor contract. NextBatch returns up
// to max tuples as a columnar chunk; ok=false means end of stream (the batch
// is then empty). A non-nil error is terminal. Every batch with ok=true has
// at least one row, so consumers never spin.
type BatchCursor interface {
	Cursor
	NextBatch(max int) (Batch, bool, error)
}

// batchInput adapts an operator's input cursor to batch pulls. A
// batch-capable input is forwarded; a scalar one is pulled up to max times.
// The scalar contract delivers tuples produced before an error and then the
// error, so a partially filled chunk is shipped first and the error held for
// the following pull.
type batchInput struct {
	in   Cursor
	err  error
	done bool
}

func (bi *batchInput) pull(max int) (Batch, bool, error) {
	if bi.done {
		err := bi.err
		bi.err = nil
		return Batch{}, false, err
	}
	if max < 1 {
		max = 1
	}
	if bc, ok := bi.in.(BatchCursor); ok {
		b, ok, err := bc.NextBatch(max)
		if err != nil || !ok {
			bi.done = true
		}
		return b, ok, err
	}
	var bb batchBuilder
	for bb.n < max {
		t, ok, err := bi.in.Next()
		if err != nil {
			bi.done, bi.err = true, err
			break
		}
		if !ok {
			bi.done = true
			break
		}
		bb.add(t)
	}
	if bb.n == 0 {
		err := bi.err
		bi.err = nil
		return Batch{}, false, err
	}
	return bb.batch(), true, nil
}

// vecCursor lifts a batch producer into both cursor faces. The scalar face
// buffers one batch and refills it through the adaptive 1→cap window; the
// batch face serves buffered rows first and otherwise forwards the requested
// size to the producer unchanged.
type vecCursor struct {
	produce func(max int) (Batch, bool, error)
	closefn func()

	buf    Batch
	pos    int
	window int
	capw   int
	done   bool
	err    error
}

func newVecCursor(capw int, produce func(max int) (Batch, bool, error), closefn func()) *vecCursor {
	if capw < 1 {
		capw = 1
	}
	return &vecCursor{produce: produce, closefn: closefn, capw: capw}
}

func (v *vecCursor) fill(max int) (bool, error) {
	if v.done {
		err := v.err
		v.err = nil
		return false, err
	}
	b, ok, err := v.produce(max)
	if err != nil || !ok {
		v.done = true
		if ok && b.Len() > 0 {
			// Producer shipped rows alongside a terminal error: deliver the
			// rows, hold the error.
			v.err = err
			v.buf, v.pos = b, 0
			return true, nil
		}
		return false, err
	}
	v.buf, v.pos = b, 0
	return true, nil
}

func (v *vecCursor) Next() (Tuple, bool, error) {
	for {
		if v.pos < v.buf.Len() {
			t := v.buf.Row(v.pos)
			v.pos++
			return t, true, nil
		}
		if v.window < 1 {
			v.window = 1
		}
		ok, err := v.fill(v.window)
		if err != nil || !ok {
			return Tuple{}, false, err
		}
		if v.window < v.capw {
			v.window *= 2
			if v.window > v.capw {
				v.window = v.capw
			}
		}
	}
}

func (v *vecCursor) NextBatch(max int) (Batch, bool, error) {
	if max < 1 {
		max = 1
	}
	for {
		if v.pos < v.buf.Len() {
			hi := v.pos + max
			if hi > v.buf.Len() {
				hi = v.buf.Len()
			}
			b := v.buf.slice(v.pos, hi)
			v.pos = hi
			return b, true, nil
		}
		ok, err := v.fill(max)
		if err != nil || !ok {
			return Batch{}, false, err
		}
	}
}

func (v *vecCursor) Close() {
	if v.closefn != nil {
		v.closefn()
	}
}

// ---- condition evaluation over columns ----

// preVal is a pre-resolved comparison operand: its comparable string (the
// atom-then-id resolution of operandCmpValue) and its numeric form. A
// number read from a relational row keeps its Datum instead of the string,
// which is rendered only if it is compared as text.
type preVal struct {
	s     string
	f     float64
	num   bool
	valid bool
	d     *relstore.Datum
}

func preResolve(v Value) preVal {
	if r, ok := v.(*rowRef); ok && r.spec.kind != specTuple {
		d := &r.row.vals[r.spec.pos]
		switch d.Kind {
		case relstore.TInt:
			return preVal{f: float64(d.I), num: true, valid: true, d: d}
		case relstore.TFloat:
			return preVal{f: d.F(), num: true, valid: true, d: d}
		}
		return preValOf(d.S)
	}
	s, ok := cmpKeyOf(v)
	if !ok {
		return preVal{}
	}
	return preValOf(s)
}

// text is the operand's comparable string, rendered from its Datum the
// first time it is asked for.
func (p *preVal) text() string {
	if p.d != nil {
		p.s, p.d = p.d.String(), nil
	}
	return p.s
}

func preValOf(s string) preVal {
	p := preVal{s: s, valid: true}
	p.f, p.num = xtree.ParseNumber(s)
	return p
}

// cmpPre mirrors xtree.CompareValues on pre-parsed operands: numeric when
// both sides parse as numbers, lexicographic otherwise.
func cmpPre(x, y *preVal) int {
	if x.num && y.num {
		switch {
		case x.f < y.f:
			return -1
		case x.f > y.f:
			return 1
		default:
			return 0
		}
	}
	xs, ys := x.text(), y.text()
	switch {
	case xs < ys:
		return -1
	case xs > ys:
		return 1
	default:
		return 0
	}
}

func evalPre(x *preVal, op xtree.CmpOp, y *preVal) bool {
	if !x.valid || !y.valid {
		return false
	}
	c := cmpPre(x, y)
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
}

// condEval evaluates one condition against batch rows with the operand
// columns resolved once per batch schema and constants parsed once per
// cursor, replicating evalCond exactly (including the id-selection forms and
// the operand-without-atom → id fallback).
type condEval struct {
	cond xmas.Cond

	generic bool // fall back to evalCond on a gathered row
	idSel   bool // $v = &oid
	idSelR  bool // &oid = $v (id on the left)
	lIdx    int  // column of the left operand, -1 when const
	rIdx    int
	lConst  preVal
	rConst  preVal
}

func newCondEval(cond xmas.Cond, schema []xmas.Var) *condEval {
	ce := &condEval{cond: cond, lIdx: -1, rIdx: -1}
	idx := func(v xmas.Var) int {
		for i, s := range schema {
			if s == v {
				return i
			}
		}
		return -1
	}
	switch {
	case cond.IsIDSelection():
		ce.idSel = true
		ce.lIdx = idx(cond.Left.V)
		if ce.lIdx < 0 {
			ce.generic = true
		}
	case cond.Op == xtree.OpEQ && cond.Left.IsConst && len(cond.Left.Const) > 0 &&
		cond.Left.Const[0] == '&' && !cond.Right.IsConst:
		ce.idSelR = true
		ce.rIdx = idx(cond.Right.V)
		if ce.rIdx < 0 {
			ce.generic = true
		}
	default:
		if cond.Left.IsConst {
			ce.lConst = preValOf(cond.Left.Const)
		} else if ce.lIdx = idx(cond.Left.V); ce.lIdx < 0 {
			ce.generic = true
		}
		if cond.Right.IsConst {
			ce.rConst = preValOf(cond.Right.Const)
		} else if ce.rIdx = idx(cond.Right.V); ce.rIdx < 0 {
			ce.generic = true
		}
	}
	return ce
}

// eval evaluates the condition on row r of b.
func (ce *condEval) eval(b Batch, r int) bool {
	switch {
	case ce.generic:
		return evalCond(ce.cond, b.Row(r))
	case ce.idSel:
		id, ok := idOf(b.cols[ce.lIdx][r])
		return ok && id == ce.cond.Right.Const
	case ce.idSelR:
		id, ok := idOf(b.cols[ce.rIdx][r])
		return ok && id == ce.cond.Left.Const
	}
	left := ce.lConst
	if ce.lIdx >= 0 {
		left = preResolve(b.cols[ce.lIdx][r])
	}
	if !left.valid {
		return false
	}
	right := ce.rConst
	if ce.rIdx >= 0 {
		right = preResolve(b.cols[ce.rIdx][r])
	}
	return evalPre(&left, ce.cond.Op, &right)
}

// ---- vectorized operators ----

// newVecSelect filters batches with a selection vector; a batch where every
// row passes is forwarded without copying.
func newVecSelect(in Cursor, cond xmas.Cond, capw int) Cursor {
	bi := &batchInput{in: in}
	var ce *condEval
	produce := func(max int) (Batch, bool, error) {
		for {
			b, ok, err := bi.pull(max)
			if err != nil || !ok {
				return Batch{}, false, err
			}
			if ce == nil {
				ce = newCondEval(cond, b.schema)
			}
			var sel []int
			allPass := true
			for r := 0; r < b.n; r++ {
				if ce.eval(b, r) {
					sel = append(sel, r)
				} else {
					allPass = false
				}
			}
			if allPass && b.n > 0 {
				return b, true, nil
			}
			if len(sel) > 0 {
				return b.gather(sel), true, nil
			}
		}
	}
	return newVecCursor(capw, produce, func() { closeCursor(in) })
}

// drainBatch materializes a cursor into one columnar batch, pulling through
// the batch face when available.
func drainBatch(c Cursor, chunk int) (Batch, error) {
	bi := &batchInput{in: c}
	var bb batchBuilder
	for {
		b, ok, err := bi.pull(chunk)
		if err != nil {
			return Batch{}, err
		}
		if !ok {
			return bb.batch(), nil
		}
		for r := 0; r < b.n; r++ {
			if bb.cols == nil {
				bb.schema = b.schema
				bb.cols = make([][]Value, len(b.schema))
			}
			for col := range bb.cols {
				bb.cols[col] = append(bb.cols[col], b.cols[col][r])
			}
			bb.n++
		}
	}
}

// drainChunk is the pull size used when a vectorized operator materializes a
// build side: the whole input is needed, so the adaptive window would only
// add pulls.
const drainChunk = 256

// mergeGather builds the join output batch: left columns gathered by lsel
// followed by right columns gathered by rsel — one allocation per column per
// batch instead of one merged value slice per output row.
func mergeGather(schema []xmas.Var, lb Batch, lsel []int, rb Batch, rsel []int) Batch {
	cols := make([][]Value, 0, len(lb.cols)+len(rb.cols))
	for c := range lb.cols {
		src := lb.cols[c]
		dst := make([]Value, len(lsel))
		for i, r := range lsel {
			dst[i] = src[r]
		}
		cols = append(cols, dst)
	}
	for c := range rb.cols {
		src := rb.cols[c]
		dst := make([]Value, len(rsel))
		for i, r := range rsel {
			dst[i] = src[r]
		}
		cols = append(cols, dst)
	}
	return Batch{schema: schema, cols: cols, n: len(lsel)}
}

// newVecHashJoin probes the build table a batch of left rows at a time. The
// build side is drained only once the first probe row exists: an empty or
// failed left input must not pay the full right-source scan. That first pull
// asks for one row however many the consumer wants, so that a probe side on
// an exchange prefetches the rest while the build side drains — also when
// this join is itself the build side of another and is drained drainChunk
// rows at a time.
func newVecHashJoin(ctx *Ctx, left Cursor, right func() Cursor, schema []xmas.Var, lv, rv xmas.Var, capw int) Cursor {
	bi := &batchInput{in: left}
	var rb Batch
	var table map[joinKey][]int
	built := false
	lIdx := -1
	produce := func(max int) (Batch, bool, error) {
		for {
			n := max
			if !built {
				n = 1
			}
			lb, ok, err := bi.pull(n)
			if err != nil || !ok {
				return Batch{}, false, err
			}
			if !built {
				rb, err = drainBatch(right(), drainChunk)
				if err != nil {
					return Batch{}, false, err
				}
				table = map[joinKey][]int{}
				if rIdx := rb.colIndex(rv); rIdx >= 0 {
					col := rb.cols[rIdx]
					for r := 0; r < rb.n; r++ {
						if k, ok := joinKeyOf(col[r]); ok {
							table[k] = append(table[k], r)
						}
					}
				}
				built = true
			}
			if lIdx < 0 {
				lIdx = lb.colIndex(lv)
			}
			var lsel, rsel []int
			col := lb.cols[lIdx]
			for r := 0; r < lb.n; r++ {
				if k, ok := joinKeyOf(col[r]); ok {
					for _, m := range table[k] {
						lsel = append(lsel, r)
						rsel = append(rsel, m)
					}
				}
			}
			if len(lsel) > 0 {
				return mergeGather(schema, lb, lsel, rb, rsel), true, nil
			}
		}
	}
	return newVecCursor(capw, produce, func() { closeCursor(left) })
}

// newVecNLJoin evaluates the θ-join condition directly over the probe row
// and the materialized right columns: the per-pair merged tuple — and, for
// atom comparisons, the per-pair atom extraction and float parse — exist
// only for pairs that match.
func newVecNLJoin(ctx *Ctx, left Cursor, right func() Cursor, schema []xmas.Var, cond *xmas.Cond, capw int) Cursor {
	bi := &batchInput{in: left}
	var rb Batch
	loaded := false
	// Pre-resolved right-operand column (var-vs-var atom comparisons): one
	// resolution per right row for the whole join instead of one per pair.
	var rPre []preVal
	var ce *condEval
	prepared := false
	produce := func(max int) (Batch, bool, error) {
		for {
			n := max
			if !loaded {
				n = 1 // as in newVecHashJoin
			}
			lb, ok, err := bi.pull(n)
			if err != nil || !ok {
				return Batch{}, false, err
			}
			if !loaded {
				rb, err = drainBatch(right(), drainChunk)
				if err != nil {
					return Batch{}, false, err
				}
				loaded = true
			}
			if cond != nil && !prepared {
				prepared = true
				ce = newCondEval(*cond, schema)
				// The condEval above indexes the merged schema; split the
				// operand columns between the two sides so evaluation never
				// materializes the merged row. Falls back to merged-row
				// evaluation for the id-selection forms and unresolvable
				// operands.
				if !ce.generic && !ce.idSel && !ce.idSelR && ce.rIdx >= len(lb.cols) {
					rCol := rb.cols[ce.rIdx-len(lb.cols)]
					rPre = make([]preVal, rb.n)
					for r := 0; r < rb.n; r++ {
						rPre[r] = preResolve(rCol[r])
					}
				}
			}
			var lsel, rsel []int
			for r := 0; r < lb.n; r++ {
				switch {
				case cond == nil:
					for m := 0; m < rb.n; m++ {
						lsel = append(lsel, r)
						rsel = append(rsel, m)
					}
				case rPre != nil && ce.lIdx >= 0 && ce.lIdx < len(lb.cols):
					// left column vs right column, both pre-resolvable
					lp := preResolve(lb.cols[ce.lIdx][r])
					if !lp.valid {
						continue
					}
					for m := 0; m < rb.n; m++ {
						if evalPre(&lp, ce.cond.Op, &rPre[m]) {
							lsel = append(lsel, r)
							rsel = append(rsel, m)
						}
					}
				case rPre != nil && ce.lIdx < 0:
					// const vs right column
					for m := 0; m < rb.n; m++ {
						if evalPre(&ce.lConst, ce.cond.Op, &rPre[m]) {
							lsel = append(lsel, r)
							rsel = append(rsel, m)
						}
					}
				default:
					lt := lb.Row(r)
					for m := 0; m < rb.n; m++ {
						merged := lt.Merge(schema, rb.Row(m))
						if evalCond(*cond, merged) {
							lsel = append(lsel, r)
							rsel = append(rsel, m)
						}
					}
				}
			}
			if len(lsel) > 0 {
				return mergeGather(schema, lb, lsel, rb, rsel), true, nil
			}
		}
	}
	return newVecCursor(capw, produce, func() { closeCursor(left) })
}

// newVecCat appends the concatenated-list column to each input batch without
// touching the existing columns.
func newVecCat(in Cursor, o *xmas.Cat, schema []xmas.Var, capw int) Cursor {
	bi := &batchInput{in: in}
	xIdx, yIdx := -1, -1
	produce := func(max int) (Batch, bool, error) {
		b, ok, err := bi.pull(max)
		if err != nil || !ok {
			return Batch{}, false, err
		}
		if xIdx < 0 {
			xIdx = b.colIndex(o.X.V)
			yIdx = b.colIndex(o.Y.V)
		}
		col := make([]Value, b.n)
		for r := 0; r < b.n; r++ {
			col[r] = ListVal{L: Concat(
				childListOf(o.X, b.cols[xIdx][r]),
				childListOf(o.Y, b.cols[yIdx][r]))}
		}
		cols := make([][]Value, 0, len(b.cols)+1)
		cols = append(cols, b.cols...)
		cols = append(cols, col)
		return Batch{schema: schema, cols: cols, n: b.n}, true, nil
	}
	return newVecCursor(capw, produce, func() { closeCursor(in) })
}

// newVecCrElt builds the constructed-element column batch-at-a-time.
func newVecCrElt(in Cursor, o *xmas.CrElt, schema []xmas.Var, capw int) Cursor {
	bi := &batchInput{in: in}
	gIdx := make([]int, len(o.GroupVars))
	chIdx := -1
	resolved := false
	produce := func(max int) (Batch, bool, error) {
		b, ok, err := bi.pull(max)
		if err != nil || !ok {
			return Batch{}, false, err
		}
		if !resolved {
			for i, g := range o.GroupVars {
				gIdx[i] = b.colIndex(g)
			}
			chIdx = b.colIndex(o.Children.V)
			resolved = true
		}
		col := make([]Value, b.n)
		for r := 0; r < b.n; r++ {
			args := make([]string, len(o.GroupVars))
			fixed := make([]Fixation, len(o.GroupVars))
			for i := range o.GroupVars {
				key := orderKey(b.cols[gIdx[i]][r])
				args[i] = key
				fixed[i] = Fixation{Var: o.GroupVars[i], ID: key}
			}
			e := NewElem(skolemID(o.Out, o.SkolemFn, args), o.Label, childListOf(o.Children, b.cols[chIdx][r]))
			e.Prov = &Provenance{Var: o.Out, Fixed: fixed}
			col[r] = NodeVal{E: e}
		}
		cols := make([][]Value, 0, len(b.cols)+1)
		cols = append(cols, b.cols...)
		cols = append(cols, col)
		return Batch{schema: schema, cols: cols, n: b.n}, true, nil
	}
	return newVecCursor(capw, produce, func() { closeCursor(in) })
}

// newVecApply extends each batch with the nested plan's collected list. The
// nested evaluation itself stays lazy and scalar — only the binding-list
// plumbing is columnar.
func newVecApply(ctx *Ctx, in Cursor, o *xmas.Apply, nestedIn compiledOp, collectVar xmas.Var, schema []xmas.Var, capw int) Cursor {
	bi := &batchInput{in: in}
	inpIdx := -1
	produce := func(max int) (Batch, bool, error) {
		b, ok, err := bi.pull(max)
		if err != nil || !ok {
			return Batch{}, false, err
		}
		if inpIdx < 0 {
			inpIdx = b.colIndex(o.InpVar)
		}
		col := make([]Value, b.n)
		for r := 0; r < b.n; r++ {
			part, isSet := b.cols[inpIdx][r].(SetVal)
			if !isSet {
				return Batch{}, false, fmt.Errorf("engine: apply input %s is not a set", o.InpVar)
			}
			col[r] = ListVal{L: applyList(ctx, o.InpVar, part, nestedIn, collectVar)}
		}
		cols := make([][]Value, 0, len(b.cols)+1)
		cols = append(cols, b.cols...)
		cols = append(cols, col)
		return Batch{schema: schema, cols: cols, n: b.n}, true, nil
	}
	return newVecCursor(capw, produce, func() { closeCursor(in) })
}

// newVecGetD flattens path matches across a batch of input rows, probing the
// catalog's dataguide index when the execution enables it. Output rows are
// accumulated columnarly: the surviving input values are appended per column
// alongside the new match column, so no per-row value slice exists. A path
// step from a relational row's tuple reads the row (rowSteps) and builds
// nothing.
func newVecGetD(ctx *Ctx, in Cursor, o *xmas.GetD, schema []xmas.Var, capw int) Cursor {
	bi := &batchInput{in: in}
	var cur Batch
	curRow := 0
	var matches func() (*Elem, bool) // path matches in an element
	var steps rowSteps               // path matches in a row, while steps.r is set
	fromIdx := -1
	produce := func(max int) (Batch, bool, error) {
		var out [][]Value // input columns ++ match column, filled per match
		n := 0
		emit := func(v Value) {
			if out == nil {
				out = make([][]Value, len(cur.cols)+1)
			}
			for c := range cur.cols {
				out[c] = append(out[c], cur.cols[c][curRow])
			}
			out[len(cur.cols)] = append(out[len(cur.cols)], v)
			n++
		}
		for n < max {
			if matches != nil {
				if e, ok := matches(); ok {
					emit(NodeVal{E: e.WithProv(&Provenance{
						Var:   o.Out,
						Fixed: []Fixation{{Var: o.Out, ID: e.ID}},
					})})
					continue
				}
				matches = nil
				curRow++
			} else if steps.r != nil {
				if spec, ok := steps.next(); ok {
					emit(steps.bind(spec, o.Out))
					continue
				}
				steps = rowSteps{}
				curRow++
			}
			if curRow >= cur.n {
				if n > 0 {
					// Ship what we have before pulling more input: the next
					// pull could block on a source.
					break
				}
				b, ok, err := bi.pull(max)
				if err != nil || !ok {
					return Batch{}, false, err
				}
				cur, curRow = b, 0
				if fromIdx < 0 {
					fromIdx = cur.colIndex(o.From)
				}
				continue
			}
			switch v := cur.cols[fromIdx][curRow].(type) {
			case *rowRef:
				if v.spec.kind == specTuple {
					steps = rowSteps{r: v, path: o.Path}
				} else {
					matches = pathStream(v.element(), o.Path)
				}
			case NodeVal:
				matches = ctx.pathMatches(v.E, o.Path)
			case ListVal:
				// The rewrite rules (Table 2) produce paths like list.q over
				// list-valued variables, treating the list as a virtual node
				// labeled "list" — exactly the tree representation of
				// Figure 5.
				matches = pathStream(NewElem("", "list", v.L), o.Path)
			default:
				curRow++
			}
		}
		return Batch{schema: schema, cols: out, n: n}, true, nil
	}
	return newVecCursor(capw, produce, func() { closeCursor(in) })
}
