package rewrite

import (
	"errors"
	"strings"
	"testing"

	"mix/internal/xmas"
)

// gatePlan is a two-getD chain whose inner binding $X nothing else uses —
// the shape where dropping $X passes xmas.Verify but violates site-schema
// preservation.
func gatePlan() xmas.Op {
	src := &xmas.MkSrc{SrcID: "&src", Out: "$D"}
	inner := &xmas.GetD{In: src, From: "$D", Path: xmas.ParsePath("a"), Out: "$X"}
	outer := &xmas.GetD{In: inner, From: "$D", Path: xmas.ParsePath("b"), Out: "$Y"}
	return &xmas.TD{In: outer, V: "$Y"}
}

// dropRule deliberately violates the rewriter contract: it deletes the getD
// binding outVar, shrinking the site schema.
func dropRule(outVar xmas.Var) rule {
	return rule{"test-drop-binding", func(_ *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool) {
		if g, ok := op.(*xmas.GetD); ok && g.Out == outVar {
			return g.In, nil, true
		}
		return nil, nil, false
	}, getDOp}
}

func TestGateRejectsSchemaBreakingRewrite(t *testing.T) {
	// Dropping the unused $X keeps the plan verifiable — only the
	// site-schema preservation check can catch it.
	testExtraRules = []rule{dropRule("$X")}
	defer func() { testExtraRules = nil }()

	_, _, err := Optimize(gatePlan(), Options{})
	var gerr *GateError
	if !errors.As(err, &gerr) {
		t.Fatalf("Optimize = %v, want *GateError", err)
	}
	if gerr.Rule != "test-drop-binding" {
		t.Fatalf("GateError.Rule = %q, want test-drop-binding", gerr.Rule)
	}
	if !strings.Contains(gerr.Error(), "site schema not preserved") {
		t.Fatalf("gate error %q does not name the violated invariant", gerr.Error())
	}
}

func TestGateRejectsVerifyBreakingRewrite(t *testing.T) {
	// Dropping $Y leaves the tD collecting an unbound variable: the
	// whole-plan re-verification rejects the step and the underlying
	// *xmas.VerifyError stays reachable through errors.As.
	testExtraRules = []rule{dropRule("$Y")}
	defer func() { testExtraRules = nil }()

	_, _, err := Optimize(gatePlan(), Options{})
	var gerr *GateError
	if !errors.As(err, &gerr) {
		t.Fatalf("Optimize = %v, want *GateError", err)
	}
	var verr *xmas.VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("gate error %v does not wrap *xmas.VerifyError", err)
	}
}

func TestGateOffWithoutDebug(t *testing.T) {
	// With debug off neither the per-step gate nor the exit verification
	// runs, so the buggy rule's plan leaves the rewriter. It is still
	// rejected before it can run: engine.Compile verifies every plan, and
	// that verification must catch the unbound collect variable. (The
	// silent $X case is exactly what only the debug gate can catch.)
	xmas.SetDebug(false)
	defer xmas.SetDebug(true)
	testExtraRules = []rule{dropRule("$Y")}
	defer func() { testExtraRules = nil }()

	out, _, err := Optimize(gatePlan(), Options{})
	var gerr *GateError
	if errors.As(err, &gerr) {
		t.Fatalf("got GateError %v with debug off; the per-step gate should be disabled", gerr)
	}
	if err != nil {
		t.Fatalf("Optimize = %v; with debug off only the input is checked", err)
	}
	var verr *xmas.VerifyError
	if !errors.As(xmas.Verify(out), &verr) {
		t.Fatalf("the broken plan passes xmas.Verify, which compiling it runs:\n%s", xmas.Format(out))
	}
}
