package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"

	"mix"
	"mix/internal/compose"
	"mix/internal/cost"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/sqlexec"
	"mix/internal/sqlgen"
	"mix/internal/sqlparse"
	"mix/internal/translate"
	"mix/internal/xmas"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// site is one mediator plus what the staged replay needs to plan the way the
// mediator does: its configuration, its stores, and the replay's own mirrors
// of the mediator's plan caches (nil when Config.PlanCache is off, and then
// the cache methods pass straight through).
type site struct {
	med *mix.Mediator
	cfg mix.Config
	dbs []*mix.DB
	// labels is the relation → columns map AddRelationalSource feeds the
	// rewriter's schema-unsat rule.
	labels map[string][]string
	rw     *rewrite.Cache
	pc     *engine.PlanCache
}

func newSite(cfg mix.Config, dbs ...*mix.DB) *site {
	st := &site{med: mix.NewWith(cfg), cfg: cfg, dbs: dbs, labels: map[string][]string{}}
	for _, db := range dbs {
		st.med.AddRelationalSource(db)
		for _, rel := range db.Relations() {
			t, _ := db.Table(rel)
			for _, c := range t.Schema.Columns {
				st.labels[rel] = append(st.labels[rel], c.Name)
			}
		}
	}
	if cfg.PlanCache > 0 {
		st.rw = rewrite.NewCache(cfg.PlanCache)
		st.pc = engine.NewPlanCache(cfg.PlanCache)
	}
	return st
}

// shipped sums the site's source counters.
func (st *site) shipped() (tuples, queries int64) {
	for _, db := range st.dbs {
		s := db.Stats()
		tuples += s.TuplesShipped
		queries += s.QueriesReceived
	}
	return tuples, queries
}

// engineOpts mirrors Mediator.engineOpts: the options Query and QueryFrom
// compile with. Open compiles with the batch window pinned at 1.
func (st *site) engineOpts(nav bool) engine.Options {
	batchExec := st.cfg.BatchExec
	switch {
	case nav || batchExec < 0:
		batchExec = 1
	case batchExec == 0:
		batchExec = mix.DefaultBatchExec
	}
	return engine.Options{
		PartialResults: st.cfg.PartialResults,
		BatchSize:      st.cfg.BatchSize,
		Prefetch:       st.cfg.Prefetch,
		Parallelism:    st.cfg.Parallelism,
		ExchangeBuffer: st.cfg.ExchangeBuffer,
		BatchExec:      batchExec,
		PathIndex:      st.cfg.PathIndex,
		CostOpt:        st.cfg.CostOpt,
	}
}

// planStages are the spans that add up to what Mediator.Query, QueryFrom and
// Open do before they return: replay parity compares their sum with the time
// of the real call.
var planStages = []string{
	"xquery.parse", "translate.translate", "compose.decontext", "rewrite.optimize",
	"cost.reorder", "sqlgen.push", "engine.compile",
}

// answer is what one replayed query produced.
type answer struct {
	hash    uint64
	shipped int64
}

// replayer re-executes a script's queries stage by stage through the
// packages' exported functions, in the order Mediator.planQuery, QueryFrom
// and Open call them, with a span around each stage. It is a copy of the
// mediator's pipeline by construction; replay parity (same answer, same
// tuples shipped, planning time within a fifth of the real call) is what
// keeps it from measuring a path nobody runs.
type replayer struct {
	tr     *tracer
	meter  func() int64 // tuples every source of the system has shipped
	script int
	root   int
	ids    int
	walker session
}

func (r *replayer) stage(name string) int { return r.tr.begin(name, r.script, r.root) }

func (r *replayer) freshID() string {
	r.ids++
	return fmt.Sprintf("replay%d", r.ids)
}

// referencedView mirrors Mediator.referencedView.
func referencedView(med *mix.Mediator, q *xquery.Query) *mix.View {
	for _, fb := range q.For {
		if fb.Source == "" {
			continue
		}
		if v, ok := med.View(strings.TrimPrefix(fb.Source, "&")); ok {
			return v
		}
		if v, ok := med.View(fb.Source); ok {
			return v
		}
	}
	return nil
}

// settle is session.settle for the replay: no collection runs on into the
// planning stages.
func (r *replayer) settle() {
	if r.tr != nil {
		runtime.GC()
	}
}

func (r *replayer) parse(text string) (*xquery.Query, error) {
	r.settle()
	id := r.stage("xquery.parse")
	q, err := xquery.Parse(text)
	r.tr.end(id)
	return q, err
}

func (r *replayer) decontext(origin *compose.OriginPlan, ctx qdom.Context, q *xquery.Query, rootName string) (*compose.Result, error) {
	id := r.stage("compose.decontext")
	composed, err := compose.Decontextualize(origin, ctx, q, rootName, r.freshID())
	r.tr.end(id)
	return composed, err
}

// optimize mirrors Mediator.optimize.
func (r *replayer) optimize(st *site, plan xmas.Op) (composePlan, execPlan xmas.Op, err error) {
	cat := st.med.Catalog()
	composePlan = plan
	if !st.cfg.DisableRewrite {
		opts := st.cfg.RewriteOptions
		if opts.ChildLabels == nil {
			opts.ChildLabels = st.labels
		}
		id := r.stage("rewrite.optimize")
		var steps []rewrite.Step
		composePlan, steps, err = st.rw.Optimize(plan, opts)
		r.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
		r.tr.count("rewrite.rules_fired", float64(len(steps)))
	}
	execPlan = composePlan
	if st.cfg.CostOpt && !st.cfg.DisablePushdown {
		id := r.stage("cost.reorder")
		execPlan = cost.Reorder(execPlan, cat, st.cfg.BatchSize)
		r.tr.end(id)
	}
	if !st.cfg.DisablePushdown {
		id := r.stage("sqlgen.push")
		execPlan, err = sqlgen.Push(execPlan, cat)
		r.tr.end(id)
		if err != nil {
			return nil, nil, err
		}
	}
	return composePlan, execPlan, nil
}

// prepared is a query planned and compiled, not yet started.
type prepared struct {
	compose xmas.Op
	tags    map[xmas.Var]string
	exec    xmas.Op
	prog    *engine.Program
}

// compile is the last planning stage, shared by every entry point.
func (r *replayer) compile(st *site, p prepared, nav bool) (prepared, error) {
	id := r.stage("engine.compile")
	prog, err := st.pc.CompileWith(p.exec, st.med.Catalog(), st.engineOpts(nav))
	r.tr.end(id)
	p.prog = prog
	return p, err
}

// query replays Mediator.Query and drains the answer.
func (r *replayer) query(st *site, text string) (answer, error) {
	p, err := r.planQuery(st, text)
	if err != nil {
		return answer{}, err
	}
	return r.execute(st, p, true)
}

// planQuery mirrors Mediator.planQuery up to the compiled program.
func (r *replayer) planQuery(st *site, text string) (prepared, error) {
	q, err := r.parse(text)
	if err != nil {
		return prepared{}, err
	}
	var p prepared
	var plan xmas.Op
	if v := referencedView(st.med, q); v != nil {
		composed, err := r.decontext(&compose.OriginPlan{Plan: v.ComposePlan, Tags: v.Tags}, qdom.Context{FromRoot: true}, q, v.Name)
		if err != nil {
			return prepared{}, err
		}
		plan, p.tags = composed.Plan, composed.Tags
	} else {
		id := r.stage("translate.translate")
		tr, err := translate.Translate(q, r.freshID())
		r.tr.end(id)
		if err != nil {
			return prepared{}, err
		}
		plan, p.tags = tr.Plan, tr.Tags
	}
	if p.compose, p.exec, err = r.optimize(st, plan); err != nil {
		return prepared{}, err
	}
	return r.compile(st, p, false)
}

// queryFrom replays Mediator.QueryFrom's decontextualizing path from a node
// reached by in-process navigation, and drains the answer.
func (r *replayer) queryFrom(st *site, n *mix.Node, text string) (answer, error) {
	q, err := r.parse(text)
	if err != nil {
		return answer{}, err
	}
	ctx, ok := n.Context()
	origin := n.Doc().Origin()
	if !ok || origin == nil {
		return answer{}, errors.New("replay: node cannot be decontextualized")
	}
	composed, err := r.decontext(&compose.OriginPlan{Plan: origin.Plan, Tags: origin.Tags}, ctx, q, "root")
	if err != nil {
		return answer{}, err
	}
	p := prepared{tags: composed.Tags}
	if p.compose, p.exec, err = r.optimize(st, composed.Plan); err != nil {
		return answer{}, err
	}
	if p, err = r.compile(st, p, false); err != nil {
		return answer{}, err
	}
	return r.execute(st, p, true)
}

// open replays Mediator.Open. A browse only pulls a few children out of the
// view, so its replay stops at the first one; a report drains it.
func (r *replayer) open(st *site, view string, drain bool) (answer, error) {
	v, ok := st.med.View(view)
	if !ok {
		return answer{}, fmt.Errorf("replay: unknown view %s", view)
	}
	r.settle()
	p, err := r.compile(st, prepared{compose: v.ComposePlan, exec: v.ExecPlan, tags: v.Tags}, true)
	if err != nil {
		return answer{}, err
	}
	return r.execute(st, p, drain)
}

// execute mirrors the rest of Mediator.run: start, then force the result the
// way navigation would — the first child, then (when draining) everything —
// timing the engine apart from the QDOM walk over the forced result. Every
// pushed SQL string is then run on its own through sqlparse and sqlexec.
func (r *replayer) execute(st *site, p prepared, drain bool) (answer, error) {
	before := r.meter()
	res, metrics := p.prog.RunWithMetrics()
	defer res.Close()

	id := r.stage("engine.first_tuple")
	res.Root.Kids().Get(0)
	r.tr.end(id)

	var ans answer
	if drain {
		id = r.stage("engine.drain")
		tree := res.Root.Materialize()
		r.tr.end(id)
		ans.shipped = r.meter() - before
		r.tr.count("engine.answer_nodes", float64(treeSize(tree)))
		r.tr.count("engine.tuples_produced", float64(metrics.Total()))

		// The result is forced now, so this walk costs QDOM alone.
		doc := qdom.NewDocument(res, &qdom.Origin{Plan: p.compose, Tags: p.tags})
		w := &r.walker
		w.begin(nil, r.script, false)
		id = r.stage("qdom.nav")
		w.drain(localNode{st.med, doc.Root()})
		r.tr.end(id)
		r.tr.count("qdom.nodes", float64(w.nodes))
		ans.hash = w.marks[0]
	}
	if err := res.Err(); err != nil {
		return answer{}, err
	}

	var sqlErr error
	xmas.Walk(p.exec, func(op xmas.Op) bool {
		if rq, ok := op.(*xmas.RelQuery); ok && sqlErr == nil {
			r.tr.count("sqlgen.queries_pushed", 1)
			sqlErr = r.runSQL(st, rq, drain)
		}
		return true
	})
	return ans, sqlErr
}

// runSQL runs one pushed query standalone: parse, execute to the first row,
// and (when draining) the rest of the rows.
func (r *replayer) runSQL(st *site, rq *xmas.RelQuery, drain bool) error {
	db, ok := st.med.Catalog().RelDB(rq.Server)
	if !ok {
		return fmt.Errorf("replay: unknown server %s", rq.Server)
	}
	id := r.stage("sqlparse.parse")
	sel, err := sqlparse.Parse(rq.SQL)
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.stage("sqlexec.exec")
	cur, _, err := sqlexec.Exec(db, sel)
	if err != nil {
		r.tr.end(id)
		return err
	}
	defer cur.Close()
	_, more := cur.Next()
	r.tr.end(id)
	if !drain || !more {
		return nil
	}
	rows := 1
	id = r.stage("sqlexec.drain")
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
		rows++
	}
	r.tr.end(id)
	r.tr.count("sqlexec.rows_returned", float64(rows))
	return nil
}

func treeSize(n *xtree.Node) int {
	if n == nil {
		return 0
	}
	size := 1
	for _, c := range n.Children {
		size += treeSize(c)
	}
	return size
}
