package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lockOrder builds a per-package static lock-acquisition graph over
// sync.Mutex/sync.RWMutex fields and package-level mutex variables, then
// reports cycles: two code paths that acquire the same pair of locks in
// opposite orders can deadlock the moment they run concurrently. A lock
// hierarchy is only a hierarchy if something machine-checks it.
//
// The analysis is lexical and interprocedural within the package: each
// function body is walked with a simulated held-set (branch bodies get
// copies so a lock taken inside an if does not leak to the join point;
// `defer x.Unlock()` leaves the lock held for the rest of the body, which is
// what it means), and every static call adds edges from the held locks to
// everything the callee can acquire, computed as a fixpoint over
// per-function summaries. Goroutine bodies launched with `go` start with an
// empty held-set — they do not inherit the launcher's locks. Lock identity
// is the owning struct type plus field name ("Client.mu"), so the same
// field reached through different receivers is one node; local mutex
// variables and mutexes reached through interfaces are out of scope.
// Functions in _test.go files are skipped: fixtures lock in ad-hoc orders
// under no concurrency.
func lockOrder(u *unit, report reportFunc) {
	w := &walker{
		u:     u,
		sums:  map[*types.Func]map[string]bool{},
		edges: map[string]map[string]token.Pos{},
	}

	var decls []*ast.FuncDecl
	for _, f := range u.files {
		if strings.HasSuffix(u.fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	// Per-function acquire summaries, to a fixpoint so chains of in-package
	// calls are transitively visible. Goroutines launched by a callee run
	// concurrently with it, so their acquisitions are not ordered after the
	// caller's held locks and stay out of the summary.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			obj, ok := u.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			cur := w.sums[obj]
			if cur == nil {
				cur = map[string]bool{}
				w.sums[obj] = cur
			}
			before := len(cur)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, isGo := n.(*ast.GoStmt); isGo {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, op := w.lockOp(call); op == opAcquire {
					cur[id] = true
				} else if op == opNone {
					for l := range w.sums[staticCallee(u, call)] {
						cur[l] = true
					}
				}
				return true
			})
			if len(cur) != before {
				changed = true
			}
		}
	}

	for _, fd := range decls {
		w.block(fd.Body.List, map[string]bool{})
	}
	w.reportCycles(report)
}

func TestLockOrder(t *testing.T) {
	runCorpus(t, "testdata/lockorder", lockOrder)
}

type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

type walker struct {
	u    *unit
	sums map[*types.Func]map[string]bool
	// edges[from][to] = first acquire site observed taking `to` while
	// holding `from`.
	edges map[string]map[string]token.Pos
}

// lockOp classifies a call as a mutex acquire/release on an identifiable
// lock. Only direct sync.Mutex/sync.RWMutex method calls on struct fields or
// package-level variables qualify.
func (w *walker) lockOp(call *ast.CallExpr) (string, lockOp) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	f := staticCallee(w.u, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", opNone
	}
	var op lockOp
	switch f.Name() {
	case "Lock", "RLock":
		op = opAcquire
	case "Unlock", "RUnlock":
		op = opRelease
	default:
		return "", opNone
	}
	id, ok := fieldKey(w.u, sel.X)
	if !ok {
		return "", opNone
	}
	return id, op
}

// staticCallee resolves a call to the *types.Func it statically invokes
// (direct function calls and method calls through a value or pointer).
// Indirect calls through function values and interface methods return nil.
func staticCallee(u *unit, call *ast.CallExpr) *types.Func {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		f, _ := u.info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel := u.info.Selections[fn]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified function (pkg.Fn).
		f, _ := u.info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// fieldKey resolves a selector like s.mu to a stable "StructType.field"
// identity when it names a struct field, so accesses to the same field
// correlate across methods and receivers. Nested selectors (s.srv.mu) key
// on the innermost owning struct. Package-level variables key as
// "pkg.Name". ok is false for locals.
func fieldKey(u *unit, e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel := u.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			for {
				p, ok := recv.(*types.Pointer)
				if !ok {
					break
				}
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				return named.Obj().Name() + "." + sel.Obj().Name(), true
			}
			return "?." + sel.Obj().Name(), true
		}
		// Package-qualified variable (pkg.Var).
		if obj, ok := u.info.Uses[x.Sel].(*types.Var); ok && !obj.IsField() && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
	case *ast.Ident:
		obj, ok := u.info.Uses[x].(*types.Var)
		if ok && !obj.IsField() && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
	}
	return "", false
}

func copyHeld(h map[string]bool) map[string]bool {
	out := make(map[string]bool, len(h))
	for k := range h {
		out[k] = true
	}
	return out
}

func (w *walker) addEdge(from, to string, pos token.Pos) {
	if from == to {
		// Reentrant self-locking is a different bug class (and parent/child
		// instances of one type legitimately nest); the order graph only
		// tracks distinct lock identities.
		return
	}
	m := w.edges[from]
	if m == nil {
		m = map[string]token.Pos{}
		w.edges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = pos
	}
}

func (w *walker) block(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		body := copyHeld(held)
		w.block(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.block(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Tag, held)
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, held)
		}
		w.block(s.Body, held)
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm, held)
		}
		w.block(s.Body, held)
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e, held)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.GoStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.block(fl.Body.List, map[string]bool{})
		}
		for _, arg := range s.Call.Args {
			w.expr(arg, held)
		}
	case *ast.DeferStmt:
		w.deferred(s.Call, held)
	}
}

// deferred models `defer f(...)`. A deferred unlock keeps the lock in the
// held-set — that is precisely the point of the idiom: the lock is held for
// the rest of the body. A deferred closure or call runs at return time, so
// its acquisitions happen under whatever is still held here; walking it with
// a copy of the current held-set is the closest lexical approximation.
func (w *walker) deferred(call *ast.CallExpr, held map[string]bool) {
	if _, op := w.lockOp(call); op != opNone {
		return
	}
	if fl, ok := call.Fun.(*ast.FuncLit); ok {
		w.block(fl.Body.List, copyHeld(held))
		return
	}
	w.call(call, held)
	for _, arg := range call.Args {
		w.expr(arg, held)
	}
}

func (w *walker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure not invoked here runs later, under unknown locks;
			// walk it as its own root.
			w.block(n.Body.List, map[string]bool{})
			return false
		case *ast.CallExpr:
			if fl, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal runs right here, under the
				// current held-set.
				w.block(fl.Body.List, held)
				for _, arg := range n.Args {
					w.expr(arg, held)
				}
				return false
			}
			w.call(n, held)
		}
		return true
	})
}

func (w *walker) call(call *ast.CallExpr, held map[string]bool) {
	switch id, op := w.lockOp(call); op {
	case opAcquire:
		for h := range held {
			w.addEdge(h, id, call.Lparen)
		}
		held[id] = true
		return
	case opRelease:
		delete(held, id)
		return
	}
	for l := range w.sums[staticCallee(w.u, call)] {
		for h := range held {
			w.addEdge(h, l, call.Lparen)
		}
	}
}

// reportCycles finds strongly connected components of the acquisition graph
// and reports every edge inside a multi-node component — each one is a
// witness of an order that some other path inverts.
func (w *walker) reportCycles(report reportFunc) {
	var nodes []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for from, tos := range w.edges {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sort.Strings(nodes)

	comp := tarjan(nodes, w.edges)
	for _, from := range nodes {
		tos := make([]string, 0, len(w.edges[from]))
		for to := range w.edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if comp[from] != comp[to] {
				continue
			}
			pos := w.edges[from][to]
			if rev, ok := w.edges[to][from]; ok {
				p := w.u.fset.Position(rev)
				report(pos, "acquires %s while holding %s, but %s is acquired while holding %s at %s:%d (lock-order cycle)",
					to, from, from, to, filepath.Base(p.Filename), p.Line)
			} else {
				report(pos, "acquires %s while holding %s, completing a lock-order cycle", to, from)
			}
		}
	}
}

// tarjan assigns each node a strongly-connected-component id.
func tarjan(nodes []string, edges map[string]map[string]token.Pos) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	comp := map[string]int{}
	var stack []string
	next, ncomp := 0, 0

	var strong func(v string)
	strong = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		var succ []string
		for to := range edges[v] {
			succ = append(succ, to)
		}
		sort.Strings(succ)
		for _, to := range succ {
			if _, ok := index[to]; !ok {
				strong(to)
				low[v] = min(low[v], low[to])
			} else if onStack[to] {
				low[v] = min(low[v], index[to])
			}
		}

		if low[v] == index[v] {
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp[top] = ncomp
				if top == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return comp
}
