// Package mix is a Go reproduction of the MIX mediator ("Mixing Querying
// and Navigation in MIX", ICDE 2002). It exports virtual XML views of
// relational and XML sources and lets clients interleave querying and
// navigation over them through the QDOM model:
//
//	med := mix.New()
//	med.AddRelationalSource(db)
//	med.DefineView("rootv", `FOR $C IN document(&db1.customer)/customer ... RETURN ...`)
//	p, _ := med.Prepare(`FOR $R IN document(rootv)/CustRec WHERE ... RETURN $R`, nil)
//	_, sql := p.Explain()             // read the plan; nothing has shipped
//	doc, _ := p.Run()                 // or med.Query(...): Prepare, then Run
//	n := doc.Root().Down()            // navigate: d, r, fl, fv
//	sub, _ := med.QueryFrom(n, `FOR $O IN document(root)/OrderInfo WHERE ... RETURN $O`)
//
// Queries are the XQuery subset of the paper's Figure 4 (FOR/WHERE/RETURN
// with group-by lists). A query is a value: Prepare plans it once into a
// Plan, which runs any number of times and explains itself without
// planning again. Results are virtual: source data is fetched only as
// navigation demands it, and an in-place query issued from a visited node is
// decontextualized into source queries rather than evaluated on materialized
// data.
package mix

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"mix/internal/cache"
	"mix/internal/compose"
	"mix/internal/cost"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/relstore"
	"mix/internal/rewrite"
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/xmas"
	"mix/internal/xmlio"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// Config tunes the mediator's optimizer; the zero value enables everything.
// The ablation experiments disable stages selectively.
type Config struct {
	// DisableRewrite skips the Table 2 rewriting optimizer: composed
	// queries run in their naive form (paper Figure 13).
	DisableRewrite bool
	// DisablePushdown skips SQL generation: plans access relational
	// sources through unconstrained wrapper scans.
	DisablePushdown bool
	// RewriteOptions tunes individual rule groups when rewriting is on.
	RewriteOptions rewrite.Options
	// PartialResults opts into degraded answers when a source becomes
	// unavailable mid-scan (a remote mediator dies, its circuit breaker
	// opens): instead of failing the query, the scan ends early and the
	// result carries a SourceUnavailable annotation element per lost
	// source. Off by default — the paper assumes reliable sources, and
	// fail-fast is the faithful behaviour.
	PartialResults bool
	// BatchSize asks batch-capable sources (remote mediators reached over
	// the wire protocol) to deliver top-level children in adaptive batches
	// capped at this size. 0 defers to each source's own default (the wire
	// client's configured batch size); 1 or negative forces one round trip
	// per child — the pure single-step model.
	BatchSize int
	// Prefetch tells batch-capable sources the scan will be drained: after
	// the one-frame first batch, every batch asks for the BatchSize cap
	// instead of doubling toward it. It starts no goroutine; background
	// read-ahead comes with Parallelism.
	Prefetch bool
	// Parallelism caps the goroutines one query execution may use for
	// intra-query parallelism (exchange producers, concurrent federated
	// source access), counting the consumer. 0 or 1 keeps evaluation
	// strictly sequential — today's exact demand-driven protocol; values
	// above 1 overlap source access and join input evaluation (remote scans
	// read ahead on a producer goroutine), and imply Prefetch for
	// batch-capable sources.
	Parallelism int
	// ExchangeBuffer bounds each exchange operator's tuple buffer (the
	// producer/consumer backpressure window). 0 means the engine default.
	ExchangeBuffer int
	// PlanCache holds up to this many memoized plans per pipeline stage
	// (rewritten plans and compiled programs), keyed by canonical plan text
	// so the mediator's per-query result ids share entries. 0 (the default)
	// disables plan caching entirely: every query re-runs the full
	// translate → rewrite → verify → compile pipeline, byte-identical to
	// prior behaviour.
	PlanCache int
	// SourceCache holds up to this many memoized relational result sets,
	// keyed by server name, server mutation version and normalized SQL —
	// any Create/Insert on a store invalidates its entries in O(1) by
	// making their keys unreachable. 0 (the default) disables result
	// caching: every pushed-down query ships to its source.
	SourceCache int
	// BatchExec is the window cap of the engine's operators — nothing else:
	// getD, select, join, cat, crElt and apply move bindings in chunks of up
	// to this many rows, with an adaptive window that starts at one row so
	// first-answer latency stays lazy. 0 (the default) uses
	// DefaultBatchExec for the full-answer entry points (Query, QueryFrom);
	// 1 or negative pins the window at one row there too. Navigation
	// sessions started with Open always run with the window pinned at one
	// row so browsing ships strictly on demand. Answers are byte-identical
	// at every value. Nothing but the benchmark and tests sets it; it is
	// scheduled for removal (ROADMAP item 8).
	BatchExec int
	// PathIndex builds a dataguide-style label-path index lazily over each
	// registered XML source, turning getD descendant steps from subtree
	// walks into index probes. Wildcard paths, constructed intermediate
	// results and remote sources fall back to the walk. Off by default.
	PathIndex bool
	// CostOpt enables cost-based optimization on top of the syntactic
	// Table 2 rewriter: join orders are chosen by a cardinality estimator
	// fed from the relational stores' statistics (costs denominated in
	// estimated round trips + tuples shipped, candidates judged after SQL
	// pushdown), and pushed-down queries answerable from an already-cached
	// full scan are evaluated at the mediator instead of shipped. Off by
	// default; off produces byte-identical plans and answers to prior
	// behaviour, and reordering only ever permutes join inputs whose order
	// is provably unobservable in the result. The reorderer changes no plan
	// in the test suite or the benchmark workloads: E20's win comes from
	// pushdown, which merges a chain's same-server semi-join filters itself.
	CostOpt bool
}

// DefaultBatchExec is the window cap used when Config.BatchExec is zero: the
// sweet spot of the E19 window sweep (EXPERIMENTS.md) — larger windows
// stopped paying on the mediator workloads, smaller ones gave back the
// columnar wins. Browse workloads are unaffected by it: navigation sessions
// (Open) always run with the window pinned at one row.
const DefaultBatchExec = 64

// Mediator integrates sources, maintains views, and serves QDOM documents.
type Mediator struct {
	cfg    Config
	cat    *source.Catalog
	views  map[string]*View
	nextID atomic.Int64

	// childLabels collects exhaustive child-label sets from relational
	// schemas (relation label → column names) for the schema-unsat rule.
	childLabels map[string][]string

	// rwCache and planCache memoize the rewrite and compile stages when
	// Config.PlanCache > 0; both are nil (and their methods pass through)
	// when plan caching is off.
	rwCache   *rewrite.Cache
	planCache *engine.PlanCache

	// sessionStats snapshots the serving front end's session counters when
	// a wire server is attached (SetSessionStats); nil otherwise.
	sessMu       sync.Mutex
	sessionStats func() SessionStats
}

// Plan is a query planned once and not yet run: what Prepare returns, and
// what a View keeps by name. Run starts an execution of it, as often as
// wanted, each an independent document; Explain, ExplainCost, Cost and Trace
// report on it without planning again or contacting a source. A Plan is
// never modified after planning, so one Plan may be shared across
// goroutines; its fields are for reading.
type Plan struct {
	// Name is the id of the answer's root element: the view name for a
	// view, a fresh result id for a query.
	Name string
	// ComposePlan is the optimized plan before SQL generation; in-place
	// queries compose against it (its crElt structure drives Table 2).
	ComposePlan xmas.Op
	// ExecPlan is the runnable plan with relational subplans carved into
	// SQL (paper Figure 22).
	ExecPlan xmas.Op
	// Tags maps variables to element labels, as decontextualization needs.
	Tags map[xmas.Var]string

	m     *Mediator
	query *xquery.Query
	// view is the view a query from the root composed with, if any; Trace
	// unfolds it naively.
	view *View
	// input is the translated or composed plan the rewriter started from.
	input xmas.Op
	// reordered is the join order cost.Reorder chose, before SQL
	// generation; nil when it kept the syntactic order.
	reordered xmas.Op
	// nav pins the engine's window at one row: a view's plan runs as a
	// navigation session (see Open).
	nav bool
}

// View is a named virtual XML view over the sources: the Plan of its
// definition, kept under its name. Its Name is the document id clients use:
// document(<name>).
type View struct {
	*Plan
}

// New creates a mediator with default configuration.
func New() *Mediator { return NewWith(Config{}) }

// NewWith creates a mediator with explicit configuration.
func NewWith(cfg Config) *Mediator {
	m := &Mediator{
		cfg:         cfg,
		cat:         source.NewCatalog(),
		views:       map[string]*View{},
		childLabels: map[string][]string{},
	}
	if cfg.PlanCache > 0 {
		m.rwCache = rewrite.NewCache(cfg.PlanCache)
		m.planCache = engine.NewPlanCache(cfg.PlanCache)
	}
	if cfg.SourceCache > 0 {
		m.cat.EnableResultCache(cfg.SourceCache)
	}
	return m
}

// Catalog exposes the source catalog (experiments read transfer counters
// through it).
func (m *Mediator) Catalog() *source.Catalog { return m.cat }

// Stats aggregates the transfer counters of all relational sources.
func (m *Mediator) Stats() relstore.Stats { return m.cat.Stats() }

// ResetStats zeroes all relational source counters.
func (m *Mediator) ResetStats() { m.cat.ResetStats() }

// AddRelationalSource registers a relational server; each of its relations
// becomes a navigable virtual document "&<server>.<relation>" (paper
// Figure 2). The relation schemas also feed the optimizer's schema-unsat
// rule: a tuple element's children are exactly its columns.
func (m *Mediator) AddRelationalSource(db *relstore.DB) {
	m.cat.AddRelDB(db)
	for _, rel := range db.Relations() {
		t, _ := db.Table(rel)
		cols := make([]string, len(t.Schema.Columns))
		for i, c := range t.Schema.Columns {
			cols[i] = c.Name
		}
		m.childLabels[rel] = cols
	}
}

// AddXMLDocument registers an in-memory XML document under id.
func (m *Mediator) AddXMLDocument(id string, root *xtree.Node) {
	m.cat.AddXMLDoc(id, root)
}

// AddXMLSource parses xml and registers it under id. Every element receives
// a deterministic object id derived from the source id and its preorder
// position, so XML-sourced nodes are addressable — skolem ids, duplicate
// elimination and decontextualization all depend on node identity (paper
// Section 2: ids "may be random surrogates").
func (m *Mediator) AddXMLSource(id, xml string) error {
	prefix := strings.TrimPrefix(id, "&")
	root, err := xmlio.ParseWith(xml, xmlio.Options{IDPrefix: prefix})
	if err != nil {
		return err
	}
	root.ID = xtree.ID(id)
	m.cat.AddXMLDoc(id, root)
	return nil
}

// AliasSource makes alias resolve like target (so views can use the paper's
// &root1-style names).
func (m *Mediator) AliasSource(alias, target string) error {
	return m.cat.Alias(alias, target)
}

// DefineView registers a virtual view. Client queries may then range over
// document(<name>). The definition is planned once, like a query with the
// view name as its root id; a definition over another view composes with it.
func (m *Mediator) DefineView(name, query string) (*View, error) {
	p, err := m.plan(query, nil, name, false)
	if err != nil {
		return nil, fmt.Errorf("mix: view %s: %w", name, err)
	}
	p.nav = true
	v := &View{Plan: p}
	m.views[name] = v
	return v, nil
}

// View returns a registered view.
func (m *Mediator) View(name string) (*View, bool) {
	v, ok := m.views[name]
	return v, ok
}

// Prepare parses and plans a query without running it; the returned Plan
// runs it. With from nil the query is issued at the root: FOR clauses may
// range over registered source documents or over registered views, and view
// references are composed and decontextualized (paper Section 6), never
// materialized. With from a node reached by navigation the query is an
// in-place query (the QDOM q command, Section 2) whose document(root) refers
// to the node. When the node's position can be conveyed to the sources the
// query is decontextualized (Section 5); otherwise Prepare materializes the
// subtree below the node and plans the query over that copy — the strategy
// the paper rejects for the common case, kept for completeness and measured
// in experiment E12.
func (m *Mediator) Prepare(query string, from *Node) (*Plan, error) {
	return m.plan(query, from, "", false)
}

// plan is the one planning function: parse, then translate or
// decontextualize, rewrite, reorder and push per configuration. name is the
// answer's root id; empty mints a fresh one. materialize skips
// decontextualization and plans over a materialized copy of from's subtree.
func (m *Mediator) plan(query string, from *Node, name string, materialize bool) (*Plan, error) {
	q, err := xquery.Parse(query)
	if err != nil {
		return nil, err
	}
	p := &Plan{m: m, query: q}
	rootID := func() string {
		if name != "" {
			return name
		}
		return m.freshID("result")
	}
	// The plan the query composes with: the view it ranges over, or the
	// plan of the document the node belongs to.
	var origin *compose.OriginPlan
	ctx, rootName := qdom.Context{FromRoot: true}, "root"
	if from == nil {
		if p.view = m.referencedView(q); p.view != nil {
			origin, rootName = p.view.originPlan(), p.view.Name
		}
	} else if c, ok := from.Context(); ok && from.Doc().Origin() != nil && !materialize {
		o := from.Doc().Origin()
		origin, ctx = &compose.OriginPlan{Plan: o.Plan, Tags: o.Tags}, c
	}
	var input xmas.Op
	if origin != nil {
		p.Name = rootID()
		composed, err := compose.Decontextualize(origin, ctx, q, rootName, p.Name)
		switch {
		case err == nil:
			input, p.Tags = composed.Plan, composed.Tags
		case from == nil || !isNotDecontextualizable(err):
			// Only positions that cannot be decontextualized fall back
			// to materialization; real errors surface.
			return nil, err
		}
	}
	if input == nil {
		if from != nil {
			// The materialization fallback: the query ranges over a
			// copy of the node's subtree, registered as a source.
			tmpID := m.freshID("ctx")
			m.cat.AddXMLDoc(tmpID, compose.MaterializeFallback(from))
			q = redirectRoot(q, tmpID)
		}
		p.Name = rootID()
		tr, err := translate.Translate(q, p.Name)
		if err != nil {
			return nil, err
		}
		input, p.Tags = tr.Plan, tr.Tags
	}
	if err := m.optimize(p, input); err != nil {
		return nil, err
	}
	return p, nil
}

// optimize runs the rewriter, cost-based join reordering and SQL generation
// per configuration over plan, recording each stage's output in p.
func (m *Mediator) optimize(p *Plan, plan xmas.Op) (err error) {
	p.input, p.ComposePlan = plan, plan
	if !m.cfg.DisableRewrite {
		if p.ComposePlan, _, err = m.rwCache.Optimize(plan, m.rewriteOptions()); err != nil {
			return err
		}
	}
	p.ExecPlan = p.ComposePlan
	if m.cfg.CostOpt && !m.cfg.DisablePushdown {
		// Cost-based join reordering sits between the syntactic rewriter and
		// SQL generation: candidates are judged by what they will cost after
		// pushdown, but the composable plan (what in-place queries compose
		// against) keeps the syntactic order. When no candidate wins, Reorder
		// returns its input unchanged.
		if r := cost.Reorder(p.ExecPlan, m.cat, m.cfg.BatchSize); r != p.ExecPlan {
			p.reordered, p.ExecPlan = r, r
		}
	}
	if !m.cfg.DisablePushdown {
		if p.ExecPlan, err = sqlgen.Push(p.ExecPlan, m.cat); err != nil {
			return err
		}
	}
	return nil
}

// rewriteOptions is the configured rule set with the relational schemas'
// child labels filled in.
func (m *Mediator) rewriteOptions() rewrite.Options {
	opts := m.cfg.RewriteOptions
	if opts.ChildLabels == nil {
		opts.ChildLabels = m.childLabels
	}
	return opts
}

// Run compiles and starts the plan, returning its virtual answer; its
// origin supports further in-place queries. Each Run is an independent
// execution. A view's plan runs as a navigation session (see Open); any
// other plan runs with Config.BatchExec's window.
func (p *Plan) Run() (*Document, error) {
	doc, _, err := p.run(false)
	return doc, err
}

// RunWithMetrics is Run with per-operator mediator-work accounting:
// navigation into the returned document updates the metrics, showing how
// many tuples each algebra operator produced under demand.
func (p *Plan) RunWithMetrics() (*Document, *Metrics, error) {
	return p.run(true)
}

func (p *Plan) run(metered bool) (*Document, *Metrics, error) {
	opts := p.m.engineOpts()
	if p.nav {
		opts.BatchExec = 1
	}
	prog, err := p.m.planCache.CompileWith(p.ExecPlan, p.m.cat, opts)
	if err != nil {
		return nil, nil, err
	}
	var res *engine.Result
	var metrics *Metrics
	if metered {
		res, metrics = prog.RunWithMetrics()
	} else {
		res = prog.Run()
	}
	return qdom.NewDocument(res, &qdom.Origin{Plan: p.ComposePlan, Tags: p.Tags}), metrics, nil
}

// Explain renders the plan: the optimized algebraic form and the executable
// form with its relational subplans carved into SQL.
func (p *Plan) Explain() (optimized, executable string) {
	return xmas.Format(p.ComposePlan), xmas.Format(p.ExecPlan)
}

// ExplainCost renders the executable plan with the cost model's
// per-operator predictions: estimated output rows, and cumulative tuples
// shipped and source round trips per subtree, with the folded scalar cost
// on a trailing total line.
func (p *Plan) ExplainCost() string {
	return cost.Explain(p.ExecPlan, p.estimator())
}

// Cost is the cost model's whole-plan estimate — the numbers ExplainCost
// renders. Experiments compare its round trips against observed transfer
// counters.
func (p *Plan) Cost() cost.Estimate {
	return p.estimator().Plan(p.ExecPlan)
}

func (p *Plan) estimator() *cost.Estimator {
	return &cost.Estimator{Cat: p.m.cat, Batch: p.m.cfg.BatchSize}
}

// Trace renders how the plan was reached, one step per stage and per
// applied rewrite rule — the live counterpart of the paper's Figures 14-21
// walk-through — and returns the executable plan, the one Run runs. The rule
// steps are re-derived on request: a query over a view is traced from the
// naive composition, so the view-unfolding steps show up as in Figure 13.
// Without rewriting there are no rule steps; a cost-reorder step shows the
// join order cost-based optimization chose.
func (p *Plan) Trace() (steps []TraceStep, executable string, err error) {
	cfg := p.m.cfg
	start := p.input
	if !cfg.DisableRewrite && p.view != nil {
		naive, err := compose.NaiveCompose(p.view.originPlan(), p.query, p.view.Name, p.Name)
		if err != nil {
			return nil, "", err
		}
		start = naive.Plan
	}
	steps = append(steps, TraceStep{Rule: "translate", Plan: xmas.Format(start)})
	if !cfg.DisableRewrite {
		_, trace, err := rewrite.OptimizeTraced(start, p.m.rewriteOptions())
		if err != nil {
			return nil, "", err
		}
		for _, s := range trace {
			steps = append(steps, TraceStep{Rule: s.Rule, Plan: s.Plan})
		}
	}
	if p.reordered != nil {
		steps = append(steps, TraceStep{Rule: "cost-reorder", Plan: xmas.Format(p.reordered)})
	}
	executable = xmas.Format(p.ExecPlan)
	if !cfg.DisablePushdown {
		steps = append(steps, TraceStep{Rule: "sql-split", Plan: executable})
	}
	return steps, executable, nil
}

// TraceStep is one step of a Plan's Trace.
type TraceStep struct {
	Rule string
	Plan string
}

func (p *Plan) originPlan() *compose.OriginPlan {
	return &compose.OriginPlan{Plan: p.ComposePlan, Tags: p.Tags}
}

// Query prepares a query from the root and runs it (Prepare, then Run).
func (m *Mediator) Query(query string) (*Document, error) {
	p, err := m.Prepare(query, nil)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// QueryFrom prepares an in-place query from a node reached by navigation
// and runs it (Prepare, then Run). The query's document(root) refers to the
// node.
func (m *Mediator) QueryFrom(node *Node, query string) (*Document, error) {
	p, err := m.Prepare(query, node)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// QueryFromMaterialized answers an in-place query by materializing the
// subtree below the node and evaluating locally — the rejected baseline,
// exported for experiment E12 and as the oracle decontextualization is
// tested against.
func (m *Mediator) QueryFromMaterialized(node *Node, query string) (*Document, error) {
	p, err := m.plan(query, node, "", true)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// referencedView returns the view a query's FOR clause ranges over, if any.
func (m *Mediator) referencedView(q *xquery.Query) *View {
	for _, fb := range q.For {
		if fb.Source == "" {
			continue
		}
		name := fb.Source
		if len(name) > 0 && name[0] == '&' {
			name = name[1:]
		}
		if v, ok := m.views[name]; ok {
			return v
		}
		if v, ok := m.views[fb.Source]; ok {
			return v
		}
	}
	return nil
}

// Open starts an execution of a registered view itself, returning its
// virtual document (clients usually navigate here first, then refine).
//
// Navigation sessions run the same operators as Query with the window
// pinned at one row, regardless of Config.BatchExec: a client browsing a
// view pays source shipping strictly on demand, and the adaptive window's
// read-ahead (it doubles 1→cap as the consumer drains) would ship rows the
// client never looks at — measured on the browse benchmark, 176.0 source
// tuples per session instead of 67.5. The window applies to the full-answer
// entry points (Query, QueryFrom), where every row is demanded anyway.
func (m *Mediator) Open(viewName string) (*Document, error) {
	v, ok := m.views[viewName]
	if !ok {
		return nil, fmt.Errorf("mix: unknown view %s", viewName)
	}
	return v.Run()
}

func (m *Mediator) engineOpts() engine.Options {
	batchExec := m.cfg.BatchExec
	if batchExec == 0 {
		batchExec = DefaultBatchExec
	}
	return engine.Options{
		PartialResults: m.cfg.PartialResults,
		BatchSize:      m.cfg.BatchSize,
		Prefetch:       m.cfg.Prefetch,
		Parallelism:    m.cfg.Parallelism,
		ExchangeBuffer: m.cfg.ExchangeBuffer,
		BatchExec:      batchExec,
		PathIndex:      m.cfg.PathIndex,
		CostOpt:        m.cfg.CostOpt,
	}
}

// Health reports per-source availability (circuit-breaker state of remote
// mediator sources); see source.Catalog.Health.
func (m *Mediator) Health() map[string]source.Health { return m.cat.Health() }

// SessionStats counts the serving front end's session lifecycle: admission,
// busy rejections, shedding and eviction, token resumes, and outstanding
// session memory. Populated when a wire server is attached to the mediator
// (wire.NewServer registers its counters via SetSessionStats); all-zero
// otherwise, and the shed/evicted/busy counters stay zero while the server
// runs without session limits.
type SessionStats struct {
	// Live/Peak are the current and high-water admitted session counts.
	Live, Peak int64
	// Accepted counts admissions; RejectedBusy counts typed busy
	// rejections (each is one connection turned away, not one client —
	// clients retry with backoff).
	Accepted, RejectedBusy int64
	// Shed counts sessions evicted to admit new ones under pressure;
	// IdleEvicted and OpTimeEvicted count eviction-clock evictions. All
	// three leave resumable records behind.
	Shed, IdleEvicted, OpTimeEvicted int64
	// Resumed counts successful token resumes; ResumeExpired counts resume
	// attempts whose token was unknown or past the resume window;
	// Resumable is the current parked-record count.
	Resumed, ResumeExpired, Resumable int64
	// MemBytes is the outstanding frame bytes across all live sessions'
	// handle tables.
	MemBytes int64
}

// HealthReport aggregates per-source availability with the session-serving
// front end's counters — the one snapshot an operator (or a mediator
// querying this mediator) needs to see whether the endpoint is degrading
// gracefully: which sources are reachable, how the shard fleet behind each
// sharded view is doing, what the wire has carried, and how hard admission
// control is working.
type HealthReport struct {
	Sources map[string]source.Health
	// Shards breaks sharded views down per member: view id → member id →
	// that member's availability. Empty without sharded sources.
	Shards map[string]map[string]source.Health
	// Wire carries per-endpoint transfer counters (round trips, bytes,
	// breaker state), coordinator members flattened as "<view>/<member>".
	Wire     map[string]source.TransferStats
	Caches   CacheStats
	Sessions SessionStats
}

// SetSessionStats registers the session-counter snapshot function of the
// serving front end (wire.NewServer calls this). The last registration
// wins, matching one serving endpoint per mediator process.
func (m *Mediator) SetSessionStats(fn func() SessionStats) {
	m.sessMu.Lock()
	m.sessionStats = fn
	m.sessMu.Unlock()
}

// SessionStats snapshots the attached server's session counters; zero when
// no server is attached.
func (m *Mediator) SessionStats() SessionStats {
	m.sessMu.Lock()
	fn := m.sessionStats
	m.sessMu.Unlock()
	if fn == nil {
		return SessionStats{}
	}
	return fn()
}

// HealthReport combines Health with the per-shard breakdowns, wire
// transfer counters and session counters.
func (m *Mediator) HealthReport() HealthReport {
	return HealthReport{
		Sources:  m.cat.Health(),
		Shards:   m.cat.ShardHealth(),
		Wire:     m.cat.TransferStats(),
		Caches:   m.CacheStats(),
		Sessions: m.SessionStats(),
	}
}

// DataVersion is a monotonic counter covering everything that can change an
// answer served by this mediator: source registrations and every relational
// store's mutation count. The wire server piggybacks it on each response so
// clients can validate cached navigation state in the same round trip.
func (m *Mediator) DataVersion() int64 { return m.cat.DataVersion() }

// LayerStats reports one cache layer's counters.
type LayerStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
}

// CacheStats reports the mediator-side cache layers. Layers that are
// disabled report all-zero.
type CacheStats struct {
	Rewrite LayerStats // memoized rewritten plans (Config.PlanCache)
	Compile LayerStats // memoized compiled programs (Config.PlanCache)
	Source  LayerStats // memoized relational results (Config.SourceCache)
}

// CacheStats snapshots the hit/miss/eviction counters of all cache layers.
func (m *Mediator) CacheStats() CacheStats {
	var cs CacheStats
	if m.rwCache != nil {
		cs.Rewrite = layerStats(m.rwCache.Stats())
	}
	if m.planCache != nil {
		cs.Compile = layerStats(m.planCache.Stats())
	}
	cs.Source = layerStats(m.cat.ResultCacheStats())
	return cs
}

func layerStats(s cache.Stats) LayerStats {
	return LayerStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
}

func (m *Mediator) freshID(prefix string) string {
	return fmt.Sprintf("%s%d", prefix, m.nextID.Add(1))
}

func isNotDecontextualizable(err error) bool {
	return errors.Is(err, compose.ErrNotDecontextualizable)
}

// redirectRoot rewrites document(root) references to a new source id.
func redirectRoot(q *xquery.Query, newID string) *xquery.Query {
	out := *q
	out.For = append([]xquery.ForBinding{}, q.For...)
	for i, fb := range out.For {
		if fb.Source == "root" || fb.Source == "&root" {
			out.For[i].Source = newID
		}
	}
	return &out
}
