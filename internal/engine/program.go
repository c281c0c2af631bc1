package engine

import (
	"fmt"

	"mix/internal/source"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// Options tunes execution policy; the zero value is the default fail-fast
// behaviour.
type Options struct {
	// PartialResults converts a source that becomes unavailable mid-scan
	// (source.SourceUnavailableError — e.g. a remote mediator whose
	// circuit breaker opened) into an annotated, truncated result instead
	// of a failed one: the scan ends early, the result carries a
	// SourceUnavailable annotation element per failed source, and
	// Result.Err stays nil. Other errors always propagate.
	PartialResults bool
	// BatchSize asks batch-capable sources (remote mediators) to deliver
	// top-level children in batches of up to this size. 0 defers to each source's own default; 1 or negative forces one
	// round trip per child.
	BatchSize int
	// Prefetch tells batch-capable sources the scan will be drained: after
	// the one-frame first batch, every batch asks for the BatchSize cap. It
	// starts no goroutine; background read-ahead comes with Parallelism.
	Prefetch bool
	// Parallelism caps the number of concurrently running goroutines one
	// execution may use for intra-query parallelism — exchange producers,
	// join build sides, async source scans — counting the consumer, so a
	// value of n allows n-1 producer goroutines. 0 or 1 disables the
	// machinery entirely and reproduces the sequential demand-driven
	// evaluation exactly: same code paths, same wire round trips. Values
	// above 1 also imply Prefetch (overlapping source access is the point)
	// and open async-capable federated sources concurrently, each reading
	// ahead on its own producer goroutine.
	Parallelism int
	// ExchangeBuffer bounds each exchange's tuple buffer — the backpressure
	// window between a producer goroutine and its consumer. 0 means
	// DefaultExchangeBuffer; the knob matters most when a join's probe side
	// should keep streaming while its build side drains.
	ExchangeBuffer int
	// BatchExec is the window cap of the one operator path: getD, select,
	// join, cat, crElt and apply move bindings in chunks of up to this many
	// rows, growing 1→cap adaptively so the first answer still ships alone.
	// 1 or less pins the window at one row — every pull ships exactly one
	// more binding, which is what navigation sessions run with. Answers are
	// byte-identical at every cap; it selects no interpreter.
	BatchExec int
	// PathIndex routes getD descendant steps over local XML sources through
	// the catalog's dataguide label-path index (built lazily per document)
	// instead of full-tree walks. Wildcard paths, constructed elements and
	// remote sources always take the walking path.
	PathIndex bool
	// CostOpt enables the engine half of cost-based optimization: pushed
	// relational queries that the catalog's result cache can answer from an
	// already-cached full scan are evaluated at the mediator (filter +
	// projection over cached rows) instead of being shipped to the source —
	// zero round trips against sel·N fresh tuples. Answers are identical;
	// only the transfer counters change. Off by default.
	CostOpt bool
}

// Program is a compiled XMAS plan, ready to run. Compilation resolves
// sources and validates the plan; Run is cheap and produces a fresh virtual
// result document each time.
type Program struct {
	plan   xmas.Op
	inner  compiledOp
	v      xmas.Var
	rootID string
	cat    *source.Catalog
	opts   Options
	// hints are the per-scan analysis results handed to scan-aware
	// coordinator documents at open time; nil for ordinary catalogs.
	hints map[*xmas.MkSrc]scanHint
}

// Compile validates and compiles a plan with default (fail-fast) options.
func Compile(plan xmas.Op, cat *source.Catalog) (*Program, error) {
	return CompileWith(plan, cat, Options{})
}

// CompileWith verifies and compiles a plan. The plan must be rooted at tD
// (every XMAS plan ends with the tuple-destroy operator, paper operator 9).
// Verification runs the full static checker (xmas.Verify), so a plan whose
// nested schemas are inconsistent is rejected with a *xmas.VerifyError here
// instead of panicking mid-execution.
func CompileWith(plan xmas.Op, cat *source.Catalog, opts Options) (*Program, error) {
	if err := xmas.Verify(plan); err != nil {
		return nil, err
	}
	td, ok := plan.(*xmas.TD)
	if !ok {
		return nil, fmt.Errorf("engine: plan root must be tD, got %s", plan.Name())
	}
	inner, err := compile(td.In, cat)
	if err != nil {
		return nil, err
	}
	rootID := td.RootID
	if rootID == "" {
		rootID = "&result"
	}
	if rootID != "" && rootID[0] != '&' {
		rootID = "&" + rootID
	}
	return &Program{
		plan: plan, inner: inner, v: td.V, rootID: rootID, cat: cat, opts: opts,
		hints: analyzeScans(plan, cat),
	}, nil
}

// Plan returns the plan the program was compiled from.
func (p *Program) Plan() xmas.Op { return p.plan }

// Result is the virtual answer document of a query: a root element labeled
// "list" whose children materialize only as navigation reaches them.
type Result struct {
	Root *Elem
	err  *error
	exec *execState
}

// Close cancels and joins every producer goroutine the execution still has
// in flight (exchange operators, build sides, async source scans) and
// releases open source cursors — the cleanup path for abandoned partial
// scans. Navigation after Close sees truncated child lists. Idempotent; a
// cheap no-op for sequential executions. Do not call it concurrently with
// active navigation of the same result.
func (r *Result) Close() {
	if r.exec != nil {
		r.exec.closeAll()
	}
}

// Err reports an error encountered while forcing the result. Cursor errors
// surface as truncated child lists; callers that need to distinguish check
// Err when navigation finds no child, as the wire server and the mixnav
// REPL do.
func (r *Result) Err() error {
	if r.err == nil {
		return nil
	}
	return *r.err
}

// Materialize forces the whole result into a plain tree — the behaviour of
// conventional mediators that "compute and return the full result of the
// user query" (paper Section 1). The eager baseline and tests use it.
func (r *Result) Materialize() *xtree.Node {
	return r.Root.Materialize()
}

// Run starts an execution. No source is contacted until the result's root
// children are first navigated.
func (p *Program) Run() *Result {
	return p.start(p.newCtx())
}

func (p *Program) newCtx() *Ctx {
	ctx := NewCtx(p.cat)
	ctx.opts = p.opts
	ctx.exec = newExecState(p.opts)
	ctx.hints = p.hints
	if p.opts.PartialResults {
		ctx.partial = &[]*source.SourceUnavailableError{}
	}
	return ctx
}

// startFrom runs the program inside an enclosing execution (naive view
// composition), inheriting the caller's metrics, goroutine budget and
// partial-result state.
func (p *Program) startFrom(parent *Ctx) *Result {
	ctx := NewCtx(p.cat)
	ctx.metrics = parent.metrics
	ctx.opts = parent.opts
	ctx.exec = parent.exec
	ctx.partial = parent.partial
	ctx.hints = p.hints
	return p.start(ctx)
}

// start drives the compiled cursor into a lazy result. Under the
// partial-result policy, sources recorded as unavailable during the scan
// are appended to the child list as SourceUnavailable annotation elements
// once the cursor is exhausted, so a truncated result is visibly — never
// silently — partial.
func (p *Program) start(ctx *Ctx) *Result {
	var cur Cursor
	var runErr error
	seen := map[string]bool{}
	annotated := 0
	kids := NewLazyList(func() (*Elem, bool) {
		if runErr != nil {
			return nil, false
		}
		if cur == nil {
			cur = p.inner(ctx)
		}
		for {
			t, ok, err := cur.Next()
			if err != nil {
				runErr = err
				return nil, false
			}
			if !ok {
				if note, present := ctx.noteAt(annotated); present {
					id := xtree.ID(fmt.Sprintf("&unavailable%d(%s)", annotated, note.Source))
					annotated++
					return FromNode(xtree.NewElem(id, "SourceUnavailable", xtree.Text(note.Error()))), true
				}
				return nil, false
			}
			e, isNode := nodeOf(t.MustGet(p.v))
			if !isNode || e == nil {
				continue
			}
			e = stampElem(e, p.v)
			if e.ID != "" {
				if seen[e.ID] {
					continue
				}
				seen[e.ID] = true
			}
			return e, true
		}
	})
	root := NewElem(p.rootID, "list", kids)
	return &Result{Root: root, err: &runErr, exec: ctx.exec}
}

// CompileFragment compiles a non-tD subplan into a cursor factory — a
// diagnostic hook for tests that need to observe intermediate operator
// output.
func CompileFragment(op xmas.Op, cat *source.Catalog) (func() Cursor, error) {
	c, err := compile(op, cat)
	if err != nil {
		return nil, err
	}
	return func() Cursor { return c(NewCtx(cat)) }, nil
}
