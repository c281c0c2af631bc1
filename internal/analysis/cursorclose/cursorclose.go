// Package cursorclose reports cursors, results and other close-carrying
// values obtained from Open/OpenAhead/Compile sites
// that are not closed on every path — the goroutine-leak contract of the
// exchange layer: an abandoned producer cursor that is never Closed keeps
// its goroutine and its source connection alive.
//
// A value counts as handled when it is Closed (directly or via defer),
// returned, passed to another function, stored into a field, slice, map or
// channel, captured by a closure, or reassigned. Beyond the
// "never handled anywhere" case, the analyzer flags early returns between
// the creation site and the first handling point: the classic
//
//	cur, err := d.Open(opts)
//	if err != nil { return err }
//	if other() != nil { return ... }   // leaks cur
//	defer cur.Close()
//
// shape. Returns on the creation's own error path (a guard whose condition
// mentions the error variable assigned alongside the cursor, or the cursor
// itself) are exempt — the cursor is invalid there.
package cursorclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"mix/internal/analysis"
)

// openNames are the creation-site callee names the analyzer tracks. The
// assigned value must additionally have a parameterless Close method, so a
// name in this set returning a non-closeable (engine.Compile's *Program)
// is naturally inert.
var openNames = map[string]bool{
	"Open":      true,
	"OpenAhead": true,
	"Compile":   true,
	"ExecRel":   true,  // Catalog.ExecRel: result-cache-routed SQL cursors
	"Run":       false, // Results are closed by navigation contract, not tracked
}

// Analyzer is the cursorclose check.
var Analyzer = &analysis.Analyzer{
	Name: "cursorclose",
	Doc:  "report Open/Compile results with a Close method that are not closed on every path",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	ignored := analysis.IgnoredLines(pass)
	report := func(pos token.Pos, format string, args ...interface{}) {
		if !ignored[pass.Position(pos).Line] {
			pass.Reportf(pos, format, args...)
		}
	}
	for _, fn := range analysis.Functions(pass) {
		checkBody(pass, fn.Body, report)
	}
	return nil, nil
}

// creation is one tracked `x[, err] := Open(...)` site.
type creation struct {
	ident  *ast.Ident
	obj    types.Object
	errObj types.Object
	callee string
	end    token.Pos
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, report func(token.Pos, string, ...interface{})) {
	var creations []*creation
	// Creation scan: this body only, not nested function literals (those
	// are separate entries in Functions).
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !openNames[analysis.CalleeName(call)] {
			return true
		}
		c := trackAssign(pass, as, call)
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
		checkCreation(pass, body, c, report)
	}
}

// trackAssign decides whether an assignment creates a closeable value. It
// returns a creation with a nil ident when the closeable component is
// assigned to the blank identifier.
func trackAssign(pass *analysis.Pass, as *ast.AssignStmt, call *ast.CallExpr) *creation {
	callee := analysis.CalleeName(call)
	c := &creation{callee: callee, end: as.End()}
	resType := pass.TypesInfo.Types[call].Type
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
			if analysis.HasCloseMethod(t) {
				return &creation{callee: callee} // blank-discarded closeable
			}
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id] // plain `=` to an existing var
		}
		if obj == nil {
			continue
		}
		if types.Identical(obj.Type(), errorType) {
			c.errObj = obj
			continue
		}
		if c.ident == nil && analysis.HasCloseMethod(obj.Type()) {
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

// use is one occurrence of the tracked value after creation.
type use struct {
	pos      token.Pos
	consumes bool // close/defer/escape/return/store — the value is handled
}

func checkCreation(pass *analysis.Pass, body *ast.BlockStmt, c *creation, report func(token.Pos, string, ...interface{})) {
	uses := collectUses(pass, body, c)
	firstHandled := token.Pos(-1)
	anyHandled := false
	for _, u := range uses {
		if u.consumes {
			anyHandled = true
			if firstHandled < 0 || u.pos < firstHandled {
				firstHandled = u.pos
			}
		}
	}
	if !anyHandled {
		report(c.ident.Pos(), "%s returned by %s is never closed", c.ident.Name, c.callee)
		return
	}
	// Early-return scan: a return lexically between creation and the first
	// handling point leaks the value, unless it sits on the creation's own
	// error path.
	for _, ret := range leakyReturns(pass, body, c, firstHandled) {
		report(ret, "%s returned by %s is not closed on this return path (defer %s.Close() after the error check)",
			c.ident.Name, c.callee, c.ident.Name)
	}
}

// collectUses finds every occurrence of the tracked object, classifying
// whether it handles (consumes) the value.
func collectUses(pass *analysis.Pass, body *ast.BlockStmt, c *creation) []use {
	var uses []use
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != c.obj || id.Pos() <= c.ident.Pos() {
			return true
		}
		uses = append(uses, classifyUse(id, stack))
		return true
	})
	return uses
}

// classifyUse inspects the ancestor chain of one identifier occurrence.
func classifyUse(id *ast.Ident, stack []ast.Node) use {
	u := use{pos: id.Pos()}
	// Walk ancestors innermost-out. stack[len-1] == id.
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.SelectorExpr:
			if p.X != id {
				continue
			}
			// x.Close() — a close call; possibly under defer (found by the
			// DeferStmt ancestor below). Any other method/field use is not
			// consumption by itself.
			if p.Sel.Name == "Close" && i > 0 {
				if call, ok := stack[i-1].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					u.consumes = true
					return u
				}
			}
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if containsPos(arg, id.Pos()) {
					u.consumes = true // passed to another function
					return u
				}
			}
		case *ast.ReturnStmt:
			u.consumes = true
			return u
		case *ast.AssignStmt:
			for _, r := range p.Rhs {
				if containsPos(r, id.Pos()) {
					u.consumes = true // aliased or stored
					return u
				}
			}
			for _, l := range p.Lhs {
				if l == ast.Expr(id) {
					u.consumes = true // reassigned: tracking ends here
					return u
				}
			}
		case *ast.CompositeLit, *ast.SendStmt, *ast.UnaryExpr:
			u.consumes = true
			return u
		case *ast.FuncLit:
			u.consumes = true // captured by a closure
			return u
		}
	}
	return u
}

func containsPos(n ast.Node, pos token.Pos) bool {
	return n != nil && n.Pos() <= pos && pos < n.End()
}

// leakyReturns finds returns between the creation and the first handling
// point that are not guarded by the creation's error (or nil-check)
// condition.
func leakyReturns(pass *analysis.Pass, body *ast.BlockStmt, c *creation, firstHandled token.Pos) []token.Pos {
	var out []token.Pos
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false // different function: its returns don't leak ours
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= c.end || ret.Pos() >= firstHandled {
			return true
		}
		for _, res := range ret.Results {
			if usesObj(pass, res, c.obj) {
				return true // returns the value: consumption
			}
		}
		if guardedByCreationCheck(pass, stack, c) {
			return true
		}
		out = append(out, ret.Pos())
		return true
	})
	return out
}

// guardedByCreationCheck reports whether any enclosing if/switch/for
// condition mentions the creation's error variable or the value itself —
// the paths on which the value is invalid or already tested.
func guardedByCreationCheck(pass *analysis.Pass, stack []ast.Node, c *creation) bool {
	for _, n := range stack {
		var cond ast.Expr
		switch s := n.(type) {
		case *ast.IfStmt:
			cond = s.Cond
		case *ast.SwitchStmt:
			cond = s.Tag
		case *ast.ForStmt:
			cond = s.Cond
		case *ast.CaseClause:
			for _, e := range s.List {
				if usesObj(pass, e, c.errObj) || usesObj(pass, e, c.obj) {
					return true
				}
			}
		}
		if cond == nil {
			continue
		}
		if (c.errObj != nil && usesObj(pass, cond, c.errObj)) || usesObj(pass, cond, c.obj) {
			return true
		}
	}
	return false
}

func usesObj(pass *analysis.Pass, e ast.Node, obj types.Object) bool {
	if e == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
