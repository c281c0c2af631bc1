package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"testing"
)

// cursorClose reports cursors, results and other close-carrying values
// obtained from Open/OpenAhead/Compile/ExecRel sites that are not closed on
// every path — the goroutine-leak contract of the exchange layer: an
// abandoned producer cursor that is never Closed keeps its goroutine and
// its source connection alive. It reads test files too: the contract binds
// them.
//
// A value counts as handled when it is Closed (directly or via defer),
// returned, passed to another function, stored into a field, slice, map or
// channel, captured by a closure, or reassigned. Beyond the "never handled
// anywhere" case, the check flags early returns between the creation site
// and the first handling point: the classic
//
//	cur, err := d.Open(opts)
//	if err != nil { return err }
//	if other() != nil { return ... }   // leaks cur
//	defer cur.Close()
//
// shape. Returns on the creation's own error path (a guard whose condition
// mentions the error variable assigned alongside the cursor, or the cursor
// itself) are exempt — the cursor is invalid there.
func cursorClose(u *unit, report reportFunc) {
	for _, f := range u.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(u, fn.Body, report)
				}
			case *ast.FuncLit:
				checkBody(u, fn.Body, report)
			}
			return true
		})
	}
}

func TestCursorClose(t *testing.T) {
	runCorpus(t, "testdata/cursorclose", cursorClose)
}

// openNames are the creation-site callee names the check tracks. The
// assigned value must additionally have a parameterless Close method, so a
// name in this set returning a non-closeable (engine.Compile's *Program) is
// naturally inert. Results of Run are closed by the navigation contract and
// are not tracked.
var openNames = map[string]bool{
	"Open":      true,
	"OpenAhead": true,
	"Compile":   true,
	"ExecRel":   true, // Catalog.ExecRel: result-cache-routed SQL cursors
}

// creation is one tracked `x[, err] := Open(...)` site.
type creation struct {
	ident  *ast.Ident
	obj    types.Object
	errObj types.Object
	callee string
	end    token.Pos
}

func checkBody(u *unit, body *ast.BlockStmt, report reportFunc) {
	var creations []*creation
	// Creation scan: this body only, not nested function literals (those
	// are checked as bodies of their own).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !openNames[calleeName(call)] {
			return true
		}
		c := trackAssign(u, as, call)
		if c == nil {
			return true
		}
		if c.ident == nil { // closeable result assigned to blank
			report(as.Pos(), "result of %s has a Close method but is discarded", c.callee)
			return true
		}
		creations = append(creations, c)
		return true
	})
	for _, c := range creations {
		checkCreation(u, body, c, report)
	}
}

// calleeName returns the bare name of a call's function: "Open" for both
// `Open(...)` and `x.Open(...)`.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// hasCloseMethod reports whether t (or *t) has a Close method with no
// parameters. Both `Close()` and `Close() error` qualify.
func hasCloseMethod(t types.Type) bool {
	if t == nil {
		return false
	}
	check := func(ms *types.MethodSet) bool {
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			if sig, ok := m.Type().(*types.Signature); ok && m.Name() == "Close" && sig.Params().Len() == 0 {
				return true
			}
		}
		return false
	}
	if check(types.NewMethodSet(t)) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return check(types.NewMethodSet(types.NewPointer(t)))
	}
	return false
}

// trackAssign decides whether an assignment creates a closeable value. It
// returns a creation with a nil ident when the closeable component is
// assigned to the blank identifier.
func trackAssign(u *unit, as *ast.AssignStmt, call *ast.CallExpr) *creation {
	callee := calleeName(call)
	c := &creation{callee: callee, end: as.End()}
	resType := u.info.Types[call].Type
	var compTypes []types.Type
	if tup, ok := resType.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			compTypes = append(compTypes, tup.At(i).Type())
		}
	} else if resType != nil {
		compTypes = []types.Type{resType}
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue // assigned into a field/index: stored, not tracked
		}
		var t types.Type
		if i < len(compTypes) {
			t = compTypes[i]
		}
		if id.Name == "_" {
			if hasCloseMethod(t) {
				return &creation{callee: callee} // blank-discarded closeable
			}
			continue
		}
		obj := u.info.Defs[id]
		if obj == nil {
			obj = u.info.Uses[id] // plain `=` to an existing var
		}
		if obj == nil {
			continue
		}
		if types.Identical(obj.Type(), errorType) {
			c.errObj = obj
			continue
		}
		if c.ident == nil && hasCloseMethod(obj.Type()) {
			c.ident = id
			c.obj = obj
		}
	}
	if c.ident == nil {
		return nil
	}
	return c
}

var errorType = types.Universe.Lookup("error").Type()

func checkCreation(u *unit, body *ast.BlockStmt, c *creation, report reportFunc) {
	firstHandled := token.NoPos
	for _, pos := range handlingUses(u, body, c) {
		if firstHandled == token.NoPos || pos < firstHandled {
			firstHandled = pos
		}
	}
	if firstHandled == token.NoPos {
		report(c.ident.Pos(), "%s returned by %s is never closed", c.ident.Name, c.callee)
		return
	}
	// Early-return scan: a return lexically between creation and the first
	// handling point leaks the value, unless it sits on the creation's own
	// error path.
	for _, ret := range leakyReturns(u, body, c, firstHandled) {
		report(ret, "%s returned by %s is not closed on this return path (defer %s.Close() after the error check)",
			c.ident.Name, c.callee, c.ident.Name)
	}
}

// handlingUses returns the position of every occurrence of the tracked
// object after its creation that handles (consumes) the value.
func handlingUses(u *unit, body *ast.BlockStmt, c *creation) []token.Pos {
	var out []token.Pos
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if ok && u.info.Uses[id] == c.obj && id.Pos() > c.ident.Pos() && handles(id, stack) {
			out = append(out, id.Pos())
		}
		return true
	})
	return out
}

// handles inspects the ancestor chain of one identifier occurrence
// (stack[len-1] == id), innermost out.
func handles(id *ast.Ident, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			// x.Close() — a close call; possibly under defer. Any other
			// method or field use is not consumption by itself.
			if p.X == ast.Expr(id) && p.Sel.Name == "Close" && i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					return true
				}
			}
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if containsPos(arg, id.Pos()) {
					return true // passed to another function
				}
			}
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if containsPos(r, id.Pos()) {
					return true // aliased or stored
				}
			}
			for _, l := range p.Lhs {
				if l == ast.Expr(id) {
					return true // reassigned: tracking ends here
				}
			}
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt, *ast.UnaryExpr, *ast.FuncLit:
			return true // returned, stored, sent, address taken or captured
		}
	}
	return false
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}

// leakyReturns finds returns between the creation and the first handling
// point that are not guarded by the creation's error (or nil-check)
// condition.
func leakyReturns(u *unit, body *ast.BlockStmt, c *creation, firstHandled token.Pos) []token.Pos {
	var out []token.Pos
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // different function: its returns don't leak ours
		}
		stack = append(stack, n)
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= c.end || ret.Pos() >= firstHandled {
			return true
		}
		for _, res := range ret.Results {
			if usesObj(u, res, c.obj) {
				return true // returns the value: consumption
			}
		}
		if !guardedByCreationCheck(u, stack, c) {
			out = append(out, ret.Pos())
		}
		return true
	})
	return out
}

// guardedByCreationCheck reports whether any enclosing if/switch/for
// condition mentions the creation's error variable or the value itself —
// the paths on which the value is invalid or already tested.
func guardedByCreationCheck(u *unit, stack []ast.Node, c *creation) bool {
	for _, n := range stack {
		var conds []ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			conds = []ast.Expr{s.Cond}
		case *ast.SwitchStmt:
			conds = []ast.Expr{s.Tag}
		case *ast.ForStmt:
			conds = []ast.Expr{s.Cond}
		case *ast.CaseClause:
			conds = s.List
		}
		for _, e := range conds {
			if usesObj(u, e, c.errObj) || usesObj(u, e, c.obj) {
				return true
			}
		}
	}
	return false
}

func usesObj(u *unit, e ast.Node, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && u.info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
