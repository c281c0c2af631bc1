package xmas

import (
	"reflect"
	"strings"
	"testing"

	"mix/internal/xtree"
)

// fig6Plan hand-builds the plan of paper Figure 6 (for query Q1).
func fig6Plan() Op {
	custBranch := &GetD{
		In:   &GetD{In: &MkSrc{SrcID: "&root1", Out: "$K"}, From: "$K", Path: ParsePath("customer"), Out: "$C"},
		From: "$C", Path: ParsePath("customer.id"), Out: "$1",
	}
	orderBranch := &GetD{
		In:   &GetD{In: &MkSrc{SrcID: "&root2", Out: "$J"}, From: "$J", Path: ParsePath("orders"), Out: "$O"},
		From: "$O", Path: ParsePath("orders.cid"), Out: "$2",
	}
	cond := NewVarVarCond("$1", xtree.OpEQ, "$2")
	join := &Join{L: custBranch, R: orderBranch, Cond: &cond}
	crOrder := &CrElt{
		In: join, Label: "OrderInfo", SkolemFn: "g", GroupVars: []Var{"$O"},
		Children: ChildSpec{V: "$O", Wrap: true}, Out: "$P",
	}
	gby := &GroupBy{In: crOrder, Keys: []Var{"$C"}, Out: "$X"}
	apply := &Apply{
		In:     gby,
		Plan:   &TD{In: &NestedSrc{V: "$X", Vars: crOrder.Schema()}, V: "$P"},
		InpVar: "$X", Out: "$Z",
	}
	cat := &Cat{In: apply, X: ChildSpec{V: "$C", Wrap: true}, Y: ChildSpec{V: "$Z"}, Out: "$W"}
	crCust := &CrElt{
		In: cat, Label: "CustRec", SkolemFn: "f", GroupVars: []Var{"$C"},
		Children: ChildSpec{V: "$W"}, Out: "$V",
	}
	return &TD{In: crCust, V: "$V", RootID: "rootv"}
}

func TestSchemas(t *testing.T) {
	plan := fig6Plan().(*TD)
	if plan.Schema() != nil {
		t.Fatal("tD exports a document, not bindings")
	}
	cr := plan.In.(*CrElt)
	want := []Var{"$C", "$X", "$Z", "$W", "$V"}
	if !reflect.DeepEqual(cr.Schema(), want) {
		t.Fatalf("crElt schema = %v, want %v", cr.Schema(), want)
	}
	gb := cr.In.(*Cat).In.(*Apply).In.(*GroupBy)
	if !reflect.DeepEqual(gb.Schema(), []Var{"$C", "$X"}) {
		t.Fatalf("gBy schema = %v", gb.Schema())
	}
	j := gb.In.(*CrElt).In.(*Join)
	if len(j.Schema()) != 6 {
		t.Fatalf("join schema = %v", j.Schema())
	}
}

func TestValidateAcceptsFig6(t *testing.T) {
	if err := Validate(fig6Plan()); err != nil {
		t.Fatalf("Figure 6 plan rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func() *MkSrc { return &MkSrc{SrcID: "&d", Out: "$A"} }
	cases := []struct {
		name string
		plan Op
	}{
		{"tD not at root", &Select{
			In:   &TD{In: mk(), V: "$A"},
			Cond: NewVarConstCond("$A", xtree.OpEQ, "x"),
		}},
		{"unbound select var", &TD{In: &Select{In: mk(), Cond: NewVarConstCond("$B", xtree.OpEQ, "x")}, V: "$A"}},
		{"unbound getD from", &TD{In: &GetD{In: mk(), From: "$Z", Path: ParsePath("a"), Out: "$B"}, V: "$B"}},
		{"duplicate var via join", &TD{In: &Join{L: mk(), R: mk()}, V: "$A"}},
		{"apply without nSrc", &TD{In: &Apply{
			In:     &GroupBy{In: mk(), Keys: []Var{"$A"}, Out: "$X"},
			Plan:   &TD{In: &MkSrc{SrcID: "&d", Out: "$B"}, V: "$B"},
			InpVar: "$X", Out: "$Z",
		}, V: "$Z"}},
	}
	for _, c := range cases {
		if err := Validate(c.plan); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", c.name)
		}
	}
	// Redefinition check needs a distinct-output instance:
	bad := &TD{In: &GetD{In: &MkSrc{SrcID: "&d", Out: "$A"}, From: "$A", Path: ParsePath("a"), Out: "$A"}, V: "$A"}
	if err := Validate(bad); err == nil {
		t.Error("redefining $A must be rejected")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := fig6Plan()
	c := Clone(orig)
	if !Equal(orig, c) {
		t.Fatal("clone differs structurally")
	}
	// Mutate the clone deep inside and verify isolation.
	c.(*TD).In.(*CrElt).Label = "Mutated"
	if Equal(orig, c) {
		t.Fatal("mutation leaked into original")
	}
}

func TestWalkVisitsNestedPlans(t *testing.T) {
	var names []string
	Walk(fig6Plan(), func(op Op) bool {
		names = append(names, op.Name())
		return true
	})
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "nSrc") {
		t.Fatalf("Walk skipped the nested plan: %v", names)
	}
	// tD, crElt, cat, apply (+ nested tD, nSrc), gBy, crElt, join,
	// 4 getD, 2 mkSrc = 15 operators.
	if Count(fig6Plan()) != 15 {
		t.Fatalf("Count = %d, want 15", Count(fig6Plan()))
	}
}

func TestRenameConsistency(t *testing.T) {
	plan := fig6Plan()
	renamed := Rename(plan, map[Var]Var{"$C": "$C9", "$V": "$V9"})
	if err := Validate(renamed); err != nil {
		t.Fatalf("renamed plan invalid: %v", err)
	}
	vars := AllVars(renamed)
	if vars["$C"] || vars["$V"] {
		t.Fatal("old names survive renaming")
	}
	if !vars["$C9"] || !vars["$V9"] {
		t.Fatal("new names missing")
	}
	// tD collect var and skolem group vars must follow.
	if renamed.(*TD).V != "$V9" {
		t.Fatalf("tD var = %s", renamed.(*TD).V)
	}
	if renamed.(*TD).In.(*CrElt).GroupVars[0] != "$C9" {
		t.Fatal("crElt group var not renamed")
	}
}

func TestFreshVars(t *testing.T) {
	plan := fig6Plan()
	taken := AllVars(plan)
	m := FreshVars(plan, taken, map[Var]bool{"$C": true})
	if _, renamedC := m["$C"]; renamedC {
		t.Fatal("kept variable was renamed")
	}
	if nv, ok := m["$O"]; !ok || nv == "$O" {
		t.Fatalf("$O not freshened: %v", m)
	}
	renamed := Rename(plan, m)
	if err := Validate(renamed); err != nil {
		t.Fatalf("freshened plan invalid: %v", err)
	}
}

func TestFormatFig6(t *testing.T) {
	out := Format(fig6Plan())
	for _, want := range []string{
		"tD($V, rootv)",
		"crElt(CustRec, f($C), $W -> $V)",
		"cat(list($C), $Z -> $W)",
		"apply(p, $X -> $Z)",
		"gBy([$C] -> $X)",
		"crElt(OrderInfo, g($O), list($O) -> $P)",
		"join($1 = $2)",
		"getD($C.customer.id -> $1)",
		"mkSrc(&root1, $K)",
		"nSrc($X)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestEqualDistinguishesPresorted(t *testing.T) {
	a := &GroupBy{In: &MkSrc{SrcID: "&d", Out: "$A"}, Keys: []Var{"$A"}, Out: "$X"}
	b := &GroupBy{In: &MkSrc{SrcID: "&d", Out: "$A"}, Keys: []Var{"$A"}, Out: "$X", Presorted: true}
	if Equal(a, b) {
		t.Fatal("Equal must distinguish presorted group-bys")
	}
}

func TestPathHelpers(t *testing.T) {
	p := ParsePath("customer.id")
	if p.String() != "customer.id" || p.First() != "customer" {
		t.Fatalf("path parse: %v", p)
	}
	if !p.Rest().Equal(ParsePath("id")) {
		t.Fatalf("Rest = %v", p.Rest())
	}
	if !p.Prepend("CustRec").Equal(ParsePath("CustRec.customer.id")) {
		t.Fatal("Prepend failed")
	}
	if !p.Concat(ParsePath("data")).Equal(ParsePath("customer.id.data")) {
		t.Fatal("Concat failed")
	}
	if ParsePath("a/b").String() != "a.b" {
		t.Fatal("slash separator not accepted")
	}
	if !StepMatches(Wildcard, "anything") || !StepMatches("x", "x") || StepMatches("x", "y") {
		t.Fatal("StepMatches")
	}
	if len(ParsePath("")) != 0 {
		t.Fatal("empty path")
	}
}

func TestCondHelpers(t *testing.T) {
	c := NewVarConstCond("$C", xtree.OpEQ, "&XYZ123")
	if !c.IsIDSelection() {
		t.Fatal("id selection not recognized")
	}
	c2 := NewVarConstCond("$C", xtree.OpEQ, "XYZ123")
	if c2.IsIDSelection() {
		t.Fatal("plain constant misread as id selection")
	}
	c3 := NewVarVarCond("$A", xtree.OpLT, "$B")
	if got := c3.String(); got != "$A < $B" {
		t.Fatalf("cond string = %q", got)
	}
	if got := c2.String(); got != `$C = "XYZ123"` {
		t.Fatalf("const string = %q", got)
	}
	num := NewVarConstCond("$V", xtree.OpGT, "500")
	if got := num.String(); got != "$V > 500" {
		t.Fatalf("numeric const string = %q", got)
	}
	ren := c3.RenameVars(map[Var]Var{"$A": "$Z"})
	if ren.Left.V != "$Z" || ren.Right.V != "$B" {
		t.Fatalf("RenameVars: %v", ren)
	}
	if vs := c3.Vars(); !reflect.DeepEqual(vs, []Var{"$A", "$B"}) {
		t.Fatalf("Vars = %v", vs)
	}
}

func TestWithInputsArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithInputs with wrong arity must panic")
		}
	}()
	(&Select{In: &MkSrc{SrcID: "&d", Out: "$A"}, Cond: NewVarConstCond("$A", xtree.OpEQ, "x")}).WithInputs()
}

func TestMkSrcWithViewInput(t *testing.T) {
	view := &TD{In: &MkSrc{SrcID: "&d", Out: "$A"}, V: "$A", RootID: "v"}
	m := &MkSrc{SrcID: "v", Out: "$B", In: view}
	top := &TD{In: &GetD{In: m, From: "$B", Path: ParsePath("x"), Out: "$Y"}, V: "$Y"}
	if err := Validate(top); err != nil {
		t.Fatalf("naive composition form rejected: %v", err)
	}
	if _, n := InputsOf(m); n != 1 {
		t.Fatal("mkSrc with input must report it")
	}
	bad := &TD{In: &MkSrc{SrcID: "v", Out: "$B", In: &MkSrc{SrcID: "&d", Out: "$A"}}, V: "$B"}
	if err := Validate(bad); err == nil {
		t.Fatal("mkSrc input must be tD-rooted")
	}
}
