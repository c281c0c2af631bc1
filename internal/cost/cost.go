// Package cost implements the cost-based optimization layer over the
// syntactic Table 2 rewriter: a cardinality estimator for XMAS plans fed by
// the relstore statistics the catalog exposes, a cost model denominated in
// the two currencies the paper's experiments measure — estimated round
// trips and tuples shipped — and a join reorderer driven by the model.
//
// Every estimate is designed to be checkable against observed counters:
// Trips against relstore.Stats.QueriesReceived (relational sources) and
// WireStats.RequestsSent (federated sources), Shipped against
// relstore.Stats.TuplesShipped.
package cost

import (
	"math"

	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/sqlparse"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// Default fallbacks when statistics are missing (standard textbook values).
const (
	// DefaultRows is assumed for sources of unknown size.
	DefaultRows = 1000
	// DefaultEqSel is the selectivity of an equality with no distinct-count.
	DefaultEqSel = 0.1
	// DefaultRangeSel is the selectivity of a range predicate with no range
	// statistics.
	DefaultRangeSel = 1.0 / 3
	// DefaultFanout is the per-tuple output multiplicity of a navigation
	// step the estimator cannot resolve against a schema.
	DefaultFanout = 2
	// DefaultSemiSel is the fraction of kept-side tuples surviving a
	// semi-join with no statistics.
	DefaultSemiSel = 0.5
	// DefaultGroupFrac is the fraction of input tuples that remain as
	// groups when the key distinct-counts are unknown.
	DefaultGroupFrac = 0.25
	// TripWeight converts round trips into the shipped-tuple currency for a
	// single scalar cost: one round trip is charged like shipping 25 tuples
	// (a trip carries fixed protocol latency; a tuple is one row's marshal
	// and transfer).
	TripWeight = 25
)

// Estimate is the cost model's prediction for one (sub)plan.
type Estimate struct {
	// Rows is the estimated output cardinality of the operator.
	Rows float64
	// Shipped is the estimated number of tuples shipped from sources to the
	// mediator while evaluating the subtree to exhaustion.
	Shipped float64
	// Trips is the estimated number of source round trips: SQL queries for
	// relational servers, wire requests for federated documents.
	Trips float64
}

// Cost folds the two currencies into one comparable scalar.
func (e Estimate) Cost() float64 { return e.Shipped + TripWeight*e.Trips }

func (e *Estimate) addInput(in Estimate) {
	e.Shipped += in.Shipped
	e.Trips += in.Trips
}

// Estimator estimates XMAS plans against a catalog's statistics.
type Estimator struct {
	Cat *source.Catalog
	// Batch is the engine's source batch size (engine.Options.BatchSize):
	// it determines how many node frames one wire round trip carries when
	// scanning a federated document. Zero or one means unbatched.
	Batch int
}

// Plan estimates the full plan. The estimator assumes the plan is evaluated
// to exhaustion (the browse-k laziness saving is a runtime property the
// model deliberately ignores — costs are upper bounds for full answers).
func (e *Estimator) Plan(op xmas.Op) Estimate {
	binds := map[xmas.Var]colBind{}
	return e.est(op, binds)
}

// colBind records where a variable's values come from, when the estimator
// can prove it: a relation tuple or a single relation column. Only
// relation-backed bindings carry statistics.
type colBind struct {
	server   string
	relation string
	column   string // empty for tuple bindings
	isTuple  bool
}

// ScanTrips models the wire round trips of scanning n top-level elements of
// a federated document: one open, then batched children fetches with the
// client's window jumping 1 → batch (PR 3), plus the final fetch that
// discovers exhaustion when the boundary falls exactly on a batch edge.
func ScanTrips(n float64, batch int) float64 {
	if n < 1 {
		return 2 // open + one empty children fetch
	}
	if batch <= 1 {
		return 1 + n + 1 // open + one trip per child + exhaustion probe
	}
	// First window is a single frame, then straight to the cap.
	return 1 + 1 + math.Ceil((n-1)/float64(batch)) + 1
}

// FanOutWins decides fan-out vs. single-stream for a sharded scan: opening
// k member cursors concurrently pays when the per-member critical path
// (trips on rows/k elements) undercuts the sequential trips by half again,
// covering the coordinator's merge overhead and the extra opens. Unknown
// sizes (rows < 0) favour fan-out — hiding latency is the default bet.
func FanOutWins(rows float64, k, batch int) bool {
	if k <= 1 {
		return false
	}
	if rows < 0 {
		return true
	}
	return ScanTrips(rows, batch) >= 1.5*ScanTrips(rows/float64(k), batch)
}

func (e *Estimator) est(op xmas.Op, binds map[xmas.Var]colBind) Estimate {
	switch o := op.(type) {
	case *xmas.MkSrc:
		return e.estMkSrc(o, binds)

	case *xmas.GetD:
		in := e.est(o.In, binds)
		out := in
		if b, ok := binds[o.From]; ok && b.isTuple {
			_, schema, ok := e.Cat.RelStats(b.server, b.relation)
			if ok {
				switch {
				case len(o.Path) == 1 && xmas.StepMatches(o.Path[0], schema.Relation):
					binds[o.Out] = b // self-alias, one per tuple
					return out
				case len(o.Path) == 2 && xmas.StepMatches(o.Path[0], schema.Relation) && schema.ColIndex(string(o.Path[1])) >= 0:
					binds[o.Out] = colBind{server: b.server, relation: b.relation, column: string(o.Path[1])}
					return out // one column value per tuple
				}
			}
		}
		out.Rows = in.Rows * DefaultFanout
		return out

	case *xmas.Select:
		in := e.est(o.In, binds)
		out := in
		out.Rows = in.Rows * e.condSelectivity(o.Cond, binds, in.Rows)
		return out

	case *xmas.Project:
		in := e.est(o.In, binds)
		out := in
		distinct := 1.0
		known := false
		for _, v := range o.Vars {
			if cs, ok := e.colStatsFor(binds[v]); ok {
				distinct *= float64(cs.NDV)
				known = true
			}
		}
		if known {
			out.Rows = math.Min(in.Rows, distinct)
		} else {
			out.Rows = in.Rows * 0.9
		}
		return out

	case *xmas.Join:
		l := e.est(o.L, binds)
		r := e.est(o.R, binds)
		var out Estimate
		out.addInput(l)
		out.addInput(r)
		out.Rows = l.Rows * r.Rows
		if o.Cond != nil {
			out.Rows *= e.condSelectivity(*o.Cond, binds, math.Max(l.Rows, r.Rows))
		}
		return out

	case *xmas.SemiJoin:
		l := e.est(o.L, binds)
		r := e.est(o.R, binds)
		var out Estimate
		out.addInput(l)
		out.addInput(r)
		kept := l.Rows
		if o.Keep == xmas.KeepRight {
			kept = r.Rows
		}
		out.Rows = kept * DefaultSemiSel
		return out

	case *xmas.CrElt:
		in := e.est(o.In, binds)
		return in

	case *xmas.Cat:
		return e.est(o.In, binds)

	case *xmas.TD:
		return e.est(o.In, binds)

	case *xmas.GroupBy:
		in := e.est(o.In, binds)
		out := in
		distinct := 1.0
		known := false
		for _, k := range o.Keys {
			if cs, ok := e.colStatsFor(binds[k]); ok {
				distinct *= float64(cs.NDV)
				known = true
			}
		}
		if known {
			out.Rows = math.Min(in.Rows, distinct)
		} else {
			out.Rows = math.Max(1, in.Rows*DefaultGroupFrac)
		}
		return out

	case *xmas.Apply:
		in := e.est(o.In, binds)
		nested := e.est(o.Plan, map[xmas.Var]colBind{})
		out := in
		// The nested plan runs once per group; its own source work (rare
		// after rewriting — nested plans usually read only the partition)
		// repeats per group.
		out.Shipped += nested.Shipped * math.Max(1, in.Rows)
		out.Trips += nested.Trips * math.Max(1, in.Rows)
		return out

	case *xmas.NestedSrc:
		return Estimate{Rows: 4} // a handful of binding lists per partition

	case *xmas.OrderBy:
		return e.est(o.In, binds)

	case *xmas.RelQuery:
		return e.estRelQuery(o, binds)

	case *xmas.Empty:
		return Estimate{}
	}
	return Estimate{Rows: DefaultRows}
}

func (e *Estimator) estMkSrc(o *xmas.MkSrc, binds map[xmas.Var]colBind) Estimate {
	if o.In != nil {
		// Naive composition: the source is a view plan evaluated in the
		// mediator; its result's children are the nested plan's collected
		// tuples, and no extra shipping happens at this boundary.
		in := e.est(o.In, map[xmas.Var]colBind{})
		return Estimate{Rows: in.Rows, Shipped: in.Shipped, Trips: in.Trips}
	}
	rows := float64(DefaultRows)
	if n, ok := e.Cat.DocRows(o.SrcID); ok {
		rows = float64(n)
	}
	out := Estimate{Rows: rows}
	if rb, ok := e.Cat.RelBindingFor(o.SrcID); ok {
		// A wrapper view ships the whole relation with one SQL query.
		binds[o.Out] = colBind{server: rb.Server, relation: rb.Relation, isTuple: true}
		out.Shipped = rows
		out.Trips = 1
		return out
	}
	if d, err := e.Cat.Resolve(o.SrcID); err == nil {
		if sc, ok := d.(source.ShardCounter); ok {
			// A sharded view ships every element, but the member scans run
			// concurrently: the critical path is the largest partition's
			// scan, with one open per contacted member up front.
			k := float64(sc.ShardCount())
			out.Shipped = rows
			out.Trips = k + ScanTrips(rows/k, e.Batch)
			return out
		}
		if _, remote := d.(source.HealthReporter); remote {
			// A federated document ships every element over the wire.
			out.Shipped = rows
			out.Trips = ScanTrips(rows, e.Batch)
			return out
		}
	}
	// Local XML: already in mediator memory.
	return out
}

func (e *Estimator) estRelQuery(o *xmas.RelQuery, binds map[xmas.Var]colBind) Estimate {
	sel, err := sqlparse.Parse(o.SQL)
	if err != nil {
		return Estimate{Rows: DefaultRows, Shipped: DefaultRows, Trips: 1}
	}
	rows := 1.0
	aliasRel := map[string]string{}
	for _, tr := range sel.From {
		aliasRel[tr.Alias] = tr.Relation
		if ts, _, ok := e.Cat.RelStats(o.Server, tr.Relation); ok {
			rows *= math.Max(1, float64(ts.Rows))
		} else {
			rows *= DefaultRows
		}
	}
	for _, p := range sel.Where {
		rows *= e.predSelectivity(o.Server, aliasRel, p)
	}
	if sel.Distinct {
		rows *= 0.9
	}
	rows = math.Max(rows, 0)
	// Record column bindings for operators above the rQ.
	for _, m := range o.Maps {
		if len(m.Cols) > 1 {
			// Tuple variable: find its relation through any of its columns.
			if ref, ok := colAt(sel, m.Cols[0].Pos); ok {
				binds[m.V] = colBind{server: o.Server, relation: aliasRel[ref.Qualifier], isTuple: true}
			}
			continue
		}
		if len(m.Cols) == 1 {
			if ref, ok := colAt(sel, m.Cols[0].Pos); ok {
				binds[m.V] = colBind{server: o.Server, relation: aliasRel[ref.Qualifier], column: ref.Column}
			}
		}
	}
	return Estimate{Rows: rows, Shipped: rows, Trips: 1}
}

func colAt(sel *sqlparse.Select, pos int) (sqlparse.ColRef, bool) {
	if pos < 0 || pos >= len(sel.Cols) {
		return sqlparse.ColRef{}, false
	}
	return sel.Cols[pos], true
}

// colStatsFor resolves a binding to live column statistics.
func (e *Estimator) colStatsFor(b colBind) (relstore.ColStats, bool) {
	if b.server == "" || b.column == "" {
		return relstore.ColStats{}, false
	}
	ts, schema, ok := e.Cat.RelStats(b.server, b.relation)
	if !ok {
		return relstore.ColStats{}, false
	}
	return ts.ColByName(schema, b.column)
}

// condSelectivity estimates an XMAS condition using the standard rules:
// equality 1/NDV, ranges from min/max, complements for !=, defaults when
// statistics are missing. inRows is the estimated input cardinality (id
// selections pick one object out of it).
func (e *Estimator) condSelectivity(c xmas.Cond, binds map[xmas.Var]colBind, inRows float64) float64 {
	if c.IsIDSelection() {
		return 1 / math.Max(1, inRows)
	}
	// Variable-variable comparison.
	if !c.Left.IsConst && !c.Right.IsConst {
		if c.Op != xtree.OpEQ {
			return DefaultRangeSel
		}
		ls, lok := e.colStatsFor(binds[c.Left.V])
		rs, rok := e.colStatsFor(binds[c.Right.V])
		switch {
		case lok && rok:
			return 1 / math.Max(1, math.Max(float64(ls.NDV), float64(rs.NDV)))
		case lok:
			return 1 / math.Max(1, float64(ls.NDV))
		case rok:
			return 1 / math.Max(1, float64(rs.NDV))
		}
		return DefaultEqSel
	}
	// Constant comparison: normalize the variable to the left.
	v, lit, op := c.Left.V, c.Right.Const, c.Op
	if c.Left.IsConst {
		v, lit = c.Right.V, c.Left.Const
		op = flipOp(op)
	}
	cs, ok := e.colStatsFor(binds[v])
	return litSelectivity(cs, ok, op, lit)
}

// predSelectivity is condSelectivity for SQL predicates inside an rQ.
func (e *Estimator) predSelectivity(server string, aliasRel map[string]string, p sqlparse.Pred) float64 {
	stats := func(x sqlparse.Expr) (relstore.ColStats, bool) {
		if x.IsLit {
			return relstore.ColStats{}, false
		}
		rel := aliasRel[x.Col.Qualifier]
		if rel == "" && len(aliasRel) == 1 {
			for _, r := range aliasRel {
				rel = r
			}
		}
		ts, schema, ok := e.Cat.RelStats(server, rel)
		if !ok {
			return relstore.ColStats{}, false
		}
		return ts.ColByName(schema, x.Col.Column)
	}
	if !p.Left.IsLit && !p.Right.IsLit {
		if p.Op != xtree.OpEQ {
			return DefaultRangeSel
		}
		ls, lok := stats(p.Left)
		rs, rok := stats(p.Right)
		switch {
		case lok && rok:
			return 1 / math.Max(1, math.Max(float64(ls.NDV), float64(rs.NDV)))
		case lok:
			return 1 / math.Max(1, float64(ls.NDV))
		case rok:
			return 1 / math.Max(1, float64(rs.NDV))
		}
		return DefaultEqSel
	}
	// Constant comparison: normalize the column to the left.
	col, lit, op := p.Left, p.Right.Lit, p.Op
	if p.Left.IsLit {
		col, lit = p.Right, p.Left.Lit
		op = flipOp(op)
	}
	cs, ok := stats(col)
	return litSelectivity(cs, ok, op, lit)
}

// litSelectivity applies the textbook rules for column-op-literal.
func litSelectivity(cs relstore.ColStats, ok bool, op xtree.CmpOp, lit string) float64 {
	switch op {
	case xtree.OpEQ:
		if ok && cs.NDV > 0 {
			return 1 / float64(cs.NDV)
		}
		return DefaultEqSel
	case xtree.OpNE:
		if ok && cs.NDV > 0 {
			return 1 - 1/float64(cs.NDV)
		}
		return 1 - DefaultEqSel
	}
	// Range predicate: interpolate within [min, max] when both the bounds
	// and the literal are numeric.
	if ok && cs.HasRange {
		if lo, hi, v, numOK := rangeTriple(cs, lit); numOK && hi > lo {
			frac := (v - lo) / (hi - lo)
			frac = math.Min(1, math.Max(0, frac))
			switch op {
			case xtree.OpLT, xtree.OpLE:
				return clampSel(frac)
			case xtree.OpGT, xtree.OpGE:
				return clampSel(1 - frac)
			}
		}
	}
	return DefaultRangeSel
}

// clampSel keeps interpolated selectivities off exact 0/1 — a predicate at
// the edge of the observed range still occasionally matches or misses.
func clampSel(s float64) float64 { return math.Min(0.999, math.Max(0.001, s)) }

func rangeTriple(cs relstore.ColStats, lit string) (lo, hi, v float64, ok bool) {
	f := func(d relstore.Datum) (float64, bool) {
		switch d.Kind {
		case relstore.TInt:
			return float64(d.I), true
		case relstore.TFloat:
			return d.F(), true
		}
		return 0, false
	}
	lo, ok1 := f(cs.Min)
	hi, ok2 := f(cs.Max)
	pv, err := relstore.ParseDatum(cs.Min.Kind, lit)
	if !ok1 || !ok2 || err != nil {
		return 0, 0, 0, false
	}
	v, ok3 := f(pv)
	return lo, hi, v, ok3
}

func flipOp(op xtree.CmpOp) xtree.CmpOp {
	switch op {
	case xtree.OpLT:
		return xtree.OpGT
	case xtree.OpLE:
		return xtree.OpGE
	case xtree.OpGT:
		return xtree.OpLT
	case xtree.OpGE:
		return xtree.OpLE
	}
	return op
}
