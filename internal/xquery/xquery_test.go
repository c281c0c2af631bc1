package xquery

import (
	"reflect"
	"strings"
	"testing"

	"mix/internal/xtree"
)

func TestParseFigure3Query(t *testing.T) {
	q, err := Parse(`
FOR $C IN source(&root1)/customer
    $O IN document(&root2)/order
WHERE $C/id/data() = $O/cid/data()
RETURN
  <CustRec>
    $C
    <OrderInfo>
      $O
    </OrderInfo> {$O}
  </CustRec> {$C}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.For) != 2 {
		t.Fatalf("FOR bindings: %d", len(q.For))
	}
	if q.For[0].Var != "$C" || q.For[0].Source != "&root1" || q.For[0].Path[0] != "customer" {
		t.Fatalf("first binding: %+v", q.For[0])
	}
	if q.For[1].Source != "&root2" {
		t.Fatalf("second binding: %+v", q.For[1])
	}
	if len(q.Where) != 1 {
		t.Fatalf("WHERE conjuncts: %d", len(q.Where))
	}
	c := q.Where[0]
	if !c.Left.Data || !c.Right.Data || c.Op != xtree.OpEQ {
		t.Fatalf("condition: %+v", c)
	}
	if c.Left.Var != "$C" || !reflect.DeepEqual(c.Left.Path, []string{"id"}) {
		t.Fatalf("left operand: %+v", c.Left)
	}
	root, ok := q.Return.(*ElemCtor)
	if !ok {
		t.Fatalf("RETURN type %T", q.Return)
	}
	if root.Label != "CustRec" || !reflect.DeepEqual(root.GroupBy, []string{"$C"}) {
		t.Fatalf("root ctor: %+v", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children: %d", len(root.Children))
	}
	if v, ok := root.Children[0].(*VarRef); !ok || v.Var != "$C" {
		t.Fatalf("first child: %#v", root.Children[0])
	}
	inner, ok := root.Children[1].(*ElemCtor)
	if !ok || inner.Label != "OrderInfo" || !reflect.DeepEqual(inner.GroupBy, []string{"$O"}) {
		t.Fatalf("inner ctor: %#v", root.Children[1])
	}
}

func TestParseVariablePathBinding(t *testing.T) {
	q := MustParse(`
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/order/value > 20000
RETURN $R`)
	if q.For[1].FromVar != "$R" || q.For[1].Path[0] != "OrderInfo" {
		t.Fatalf("variable binding: %+v", q.For[1])
	}
	if v, ok := q.Return.(*VarRef); !ok || v.Var != "$R" {
		t.Fatalf("RETURN: %#v", q.Return)
	}
	if q.Where[0].Right.Const != "20000" || !q.Where[0].Right.IsConst {
		t.Fatalf("constant operand: %+v", q.Where[0].Right)
	}
}

func TestParseConstants(t *testing.T) {
	q := MustParse(`
FOR $P IN document(root)/CustRec
WHERE $P/customer/name < "B" AND $P/customer/id != &XYZ123
RETURN $P`)
	if q.Where[0].Right.Const != "B" {
		t.Fatalf("string const: %+v", q.Where[0].Right)
	}
	if q.Where[1].Right.Const != "&XYZ123" || q.Where[1].Op != xtree.OpNE {
		t.Fatalf("oid const: %+v", q.Where[1])
	}
}

func TestParseNestedQuery(t *testing.T) {
	q := MustParse(`
FOR $C IN document(&d)/customer
RETURN
  <rec>
    $C
    FOR $O IN $C/order
    WHERE $O/value > 100
    RETURN $O
  </rec> {$C}`)
	root := q.Return.(*ElemCtor)
	if len(root.Children) != 2 {
		t.Fatalf("children: %d", len(root.Children))
	}
	nested, ok := root.Children[1].(*Query)
	if !ok {
		t.Fatalf("nested query type %T", root.Children[1])
	}
	if nested.For[0].FromVar != "$C" {
		t.Fatalf("nested FOR: %+v", nested.For[0])
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	q := MustParse(`
for $c in document(&d)/x  % paper-style comment
(: xquery comment :)
where $c/v = 1
return $c`)
	if len(q.For) != 1 || len(q.Where) != 1 {
		t.Fatalf("parsed: %+v", q)
	}
}

func TestParseMultipleGroupByVars(t *testing.T) {
	q := MustParse(`
FOR $A IN document(&d)/a $B IN document(&e)/b
RETURN <r> $A $B </r> {$A, $B}`)
	root := q.Return.(*ElemCtor)
	if !reflect.DeepEqual(root.GroupBy, []string{"$A", "$B"}) {
		t.Fatalf("group-by list: %v", root.GroupBy)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`FOR`,
		`FOR $C document(&d)/x RETURN $C`,  // missing IN
		`FOR $C IN document(&d)/x`,         // missing RETURN
		`FOR $C IN document(&d) RETURN $C`, // document without path
		`FOR $A IN document(`,              // input ends inside document(...)
		`FOR $C IN document(&d)/x WHERE RETURN $C`,      // empty WHERE
		`FOR $C IN document(&d)/x RETURN <a>$C</b>`,     // mismatched tags
		`FOR $C IN document(&d)/x WHERE $C/v RETURN $C`, // condition without operator
		`FOR $C IN document(&d)/x RETURN <a></a>`,       // empty element list
		`FOR $C IN document(&d)/x RETURN <a>$C</a> {`,   // unterminated group-by
		`FOR $C IN document(&d)/x WHERE 1 = 2 RETURN $C extra`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestUsesVar(t *testing.T) {
	q := MustParse(`
FOR $C IN document(&d)/c $O IN $C/o
WHERE $O/v = 1
RETURN <r> $C </r> {$C}`)
	for v, want := range map[string]bool{
		"$C": true, "$O": true, "$Z": false,
	} {
		if got := q.UsesVar(v); got != want {
			t.Errorf("UsesVar(%s) = %v", v, got)
		}
	}
	if got := q.Vars(); !reflect.DeepEqual(got, []string{"$C", "$O"}) {
		t.Errorf("Vars() = %v", got)
	}
}

// TestPrintRoundTrip checks that String() output reparses to the same AST
// for a corpus of representative queries.
func TestPrintRoundTrip(t *testing.T) {
	corpus := []string{
		`FOR $C IN document(&root1)/customer RETURN $C`,
		`FOR $C IN document(&root1)/customer WHERE $C/name < "B" RETURN $C`,
		`FOR $C IN source(&root1)/customer $O IN document(&root2)/order
		 WHERE $C/id/data() = $O/cid/data()
		 RETURN <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}`,
		`FOR $R IN document(rootv)/CustRec $S IN $R/OrderInfo
		 WHERE $S/order/value > 20000 RETURN $R`,
		`FOR $O IN document(root)/OrderInfo WHERE $O/order/value < 500 RETURN $O`,
		`FOR $A IN document(&d)/a RETURN <x> <y> $A </y> </x> {$A}`,
	}
	for _, src := range corpus {
		q1 := MustParse(src)
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q: %v", printed, err)
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Errorf("round trip changed AST for %q:\n%s", src, printed)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse(`FOR $C IN docment(&d)/x RETURN $C`)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error should carry position: %v", err)
	}
}

func TestWildcardPathStep(t *testing.T) {
	q := MustParse(`FOR $X IN document(&d)/customer/* WHERE $X/* = 1 RETURN $X`)
	if q.For[0].Path[1] != Wildcard {
		t.Fatalf("FOR path = %v", q.For[0].Path)
	}
	if q.Where[0].Left.Path[0] != Wildcard {
		t.Fatalf("WHERE path = %v", q.Where[0].Left.Path)
	}
	// Round trip.
	printed := q.String()
	if !strings.Contains(printed, "/*") {
		t.Fatalf("printed: %s", printed)
	}
	q2, err := Parse(printed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, q2) {
		t.Fatalf("wildcard round trip drifted:\n%s", printed)
	}
}

func TestParsePathPredicateDesugaring(t *testing.T) {
	q := MustParse(`FOR $O IN document(rootv)/CustRec[customer/addr = "LA"]/OrderInfo RETURN $O`)
	if len(q.For) != 2 {
		t.Fatalf("bindings = %+v", q.For)
	}
	if q.For[0].Var != "$pred1" || q.For[0].Path[0] != "CustRec" {
		t.Fatalf("prefix binding = %+v", q.For[0])
	}
	if q.For[1].Var != "$O" || q.For[1].FromVar != "$pred1" || q.For[1].Path[0] != "OrderInfo" {
		t.Fatalf("suffix binding = %+v", q.For[1])
	}
	if len(q.Where) != 1 {
		t.Fatalf("desugared conditions = %+v", q.Where)
	}
	c := q.Where[0]
	if c.Left.Var != "$pred1" || len(c.Left.Path) != 2 || c.Right.Const != "LA" {
		t.Fatalf("condition = %+v", c)
	}
	// Desugared queries survive print round trips (they are plain Fig 4).
	if _, err := Parse(q.String()); err != nil {
		t.Fatalf("round trip: %v\n%s", err, q.String())
	}
}

func TestParseTrailingPredicate(t *testing.T) {
	q := MustParse(`FOR $O IN document(&d)/orders[value > 10] RETURN $O`)
	if len(q.For) != 1 || q.For[0].Var != "$O" {
		t.Fatalf("bindings = %+v", q.For)
	}
	if len(q.Where) != 1 || q.Where[0].Left.Var != "$O" {
		t.Fatalf("condition = %+v", q.Where)
	}
}

func TestParseOrderByClause(t *testing.T) {
	q := MustParse(`FOR $A IN document(&d)/a $B IN $A/b ORDER BY $A, $B RETURN $B`)
	if len(q.OrderBy) != 2 || q.OrderBy[0] != "$A" || q.OrderBy[1] != "$B" {
		t.Fatalf("order by = %v", q.OrderBy)
	}
	printed := q.String()
	if !strings.Contains(printed, "ORDER BY $A, $B") {
		t.Fatalf("printed:\n%s", printed)
	}
	q2, err := Parse(printed)
	if err != nil || !reflect.DeepEqual(q, q2) {
		t.Fatalf("round trip: %v", err)
	}
	if !q.UsesVar("$A") {
		t.Fatal("UsesVar must see ORDER BY")
	}
}

func TestParsePredicateErrors(t *testing.T) {
	cases := []string{
		`FOR $O IN document(&d)[x = 1]/a RETURN $O`,   // predicate before any step
		`FOR $O IN document(&d)/a[x 1] RETURN $O`,     // missing operator
		`FOR $O IN document(&d)/a[x = $y] RETURN $O`,  // non-constant rhs
		`FOR $O IN document(&d)/a[x = 1 RETURN $O`,    // unterminated
		`FOR $O IN document(&d)/a ORDER BY RETURN $O`, // empty order by
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}
