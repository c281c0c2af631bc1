package mix_test

import (
	"fmt"
	"strings"
	"testing"

	"mix"
	"mix/internal/relstore"
	"mix/internal/workload"
)

// paperMediator builds a mediator over the Figure 2 database with the Q1
// view registered as "rootv".
func paperMediator(t *testing.T, cfg mix.Config) *mix.Mediator {
	t.Helper()
	return rootvMediator(t, workload.PaperDB(), cfg)
}

// rootvMediator builds a mediator over a customers/orders database named db1
// with the Q1 view registered as "rootv".
func rootvMediator(t *testing.T, db *relstore.DB, cfg mix.Config) *mix.Mediator {
	t.Helper()
	med := mix.NewWith(cfg)
	med.AddRelationalSource(db)
	if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", workload.Q1); err != nil {
		t.Fatalf("define view: %v", err)
	}
	return med
}

func TestOpenViewAndNavigate(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	p0 := doc.Root()
	if p0.Label() != "list" {
		t.Fatalf("root label = %q", p0.Label())
	}
	p1 := p0.Down() // first CustRec
	if p1 == nil || p1.Label() != "CustRec" {
		t.Fatalf("d(root) = %v", p1.Label())
	}
	p2 := p1.Right() // second CustRec
	if p2 == nil || p2.Label() != "CustRec" {
		t.Fatalf("r(p1) = %v", p2)
	}
	if p2.Right() != nil {
		t.Fatalf("expected exactly two CustRec children")
	}
	p3 := p1.Down() // customer element
	if p3 == nil || p3.Label() != "customer" {
		t.Fatalf("d(p1) = %v", p3.Label())
	}
	// Descend to a value leaf.
	id := p3.Down()
	if id == nil || id.Label() != "id" {
		t.Fatalf("d(customer) = %v", id.Label())
	}
	leaf := id.Down()
	v, ok := leaf.Value()
	if !ok || v == "" {
		t.Fatalf("fv(leaf) = %q, %v", v, ok)
	}
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestExample21Session replays the interleaved session of paper Example 2.1:
// navigate the view, refine with Q2 from the root, navigate again, then
// issue Q3 from a CustRec node.
func TestExample21Session(t *testing.T) {
	med := paperMediator(t, mix.Config{})

	// The client initially has access only to the root p0 of the view.
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	p0 := doc.Root()
	p1 := p0.Down()
	_ = p1.Right()
	_ = p1.Down()

	// p4 = q(Q2, p0): refine from the root. DEFCorp. < "E" keeps only the
	// DEF345 CustRec (Q2 of the paper uses "B"; our fixture names differ).
	q2 := `
FOR $P IN document(root)/CustRec
WHERE $P/customer/name < "E"
RETURN $P`
	doc2, err := med.QueryFrom(p0, q2)
	if err != nil {
		t.Fatalf("q(Q2, p0): %v", err)
	}
	p4 := doc2.Root()
	p5 := p4.Down()
	if p5 == nil || p5.Label() != "CustRec" {
		t.Fatalf("d(p4) = %v", p5)
	}
	if p5.Right() != nil {
		t.Fatalf("Q2 should keep exactly one CustRec")
	}
	name := p5.Materialize().Find("name")
	if name == nil || name.Children[0].Label != "DEFCorp." {
		t.Fatalf("Q2 kept the wrong customer: %s", p5.Materialize())
	}

	// Navigate into the other view instance: from the original doc, take
	// the second CustRec (XYZ123, two orders) and query its OrderInfo
	// children for cheap orders — q(Q3, p5) with the query contextualized
	// by that specific customer.
	rec := doc.Root().Down().Right()
	q3 := `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 500
RETURN $O`
	doc3, err := med.QueryFrom(rec, q3)
	if err != nil {
		t.Fatalf("q(Q3, rec): %v", err)
	}
	res := doc3.Materialize()
	if err := doc3.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Children) != 1 {
		t.Fatalf("Q3 should return exactly one OrderInfo (order 31416, value 150):\n%s", res.Pretty())
	}
	oi := res.Children[0]
	if oi.Label != "OrderInfo" {
		t.Fatalf("Q3 child label = %q", oi.Label)
	}
	orid := oi.Find("orid")
	if orid == nil || orid.Children[0].Label != "31416" {
		t.Fatalf("Q3 returned the wrong order:\n%s", res.Pretty())
	}

	// The same in-place query from the FIRST CustRec (DEF345) matches
	// nothing: its only order is 30000.
	doc4, err := med.QueryFrom(doc.Root().Down(), q3)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc4.Materialize().Children); n != 0 {
		t.Fatalf("Q3 from DEF345's CustRec should be empty, got %d children", n)
	}
}

// TestQueryOverView checks Figure 12's query composed over the view.
func TestQueryOverView(t *testing.T) {
	for _, cfg := range []mix.Config{
		{},
		{DisableRewrite: true, DisablePushdown: true},
		{DisablePushdown: true},
	} {
		med := paperMediator(t, cfg)
		doc, err := med.Query(workload.Fig12)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		res := doc.Materialize()
		if err := doc.Err(); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		// Customers with an order above 20000: DEF345 (30000). XYZ123's
		// orders are 2400 and 150. Order 87456 (200000) references no
		// known customer.
		if len(res.Children) != 1 {
			t.Fatalf("cfg %+v: got %d CustRec, want 1:\n%s", cfg, len(res.Children), res.Pretty())
		}
		if !strings.Contains(res.Children[0].String(), "DEFCorp.") {
			t.Fatalf("cfg %+v: wrong customer:\n%s", cfg, res.Pretty())
		}
	}
}

// TestMultiKeyGroupBy: a constructor grouped on two variables exercises the
// multi-key paths of gBy, rule 9's join introduction, and SQL ORDER BY.
func TestMultiKeyGroupBy(t *testing.T) {
	const view = `
FOR $C IN document(&root1)/customer
    $O IN document(&root2)/orders
WHERE $C/id/data() = $O/cid/data()
RETURN
  <Pair>
    $C
    $O
    <Tag> $O </Tag>
  </Pair> {$C, $O}`
	var results []string
	for _, cfg := range []mix.Config{{}, {DisableRewrite: true, DisablePushdown: true}} {
		med := mix.NewWith(cfg)
		med.AddRelationalSource(workload.PaperDB())
		if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
			t.Fatal(err)
		}
		if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
			t.Fatal(err)
		}
		if _, err := med.DefineView("pairs", view); err != nil {
			t.Fatal(err)
		}
		doc, err := med.Query(`
FOR $P IN document(pairs)/Pair
    $T IN $P/Tag/orders
WHERE $T/value < 100000
RETURN $P`)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		m := doc.Materialize()
		if err := doc.Err(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(m.Children) != 3 {
			t.Fatalf("%+v: pairs = %d, want 3:\n%s", cfg, len(m.Children), m.Pretty())
		}
		results = append(results, m.String())
	}
	if results[0] != results[1] {
		t.Fatalf("optimized and naive configs disagree:\n%s\nvs\n%s", results[0], results[1])
	}
}

// TestWildcardQuery: '*' path steps reach any child.
func TestWildcardQuery(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	doc, err := med.Query(`
FOR $X IN document(&root1)/customer/*
RETURN $X`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	// 2 customers × 3 columns.
	if len(m.Children) != 6 {
		t.Fatalf("wildcard children = %d, want 6:\n%s", len(m.Children), m.Pretty())
	}
	// Wildcard conditions work too.
	doc2, err := med.Query(`
FOR $C IN document(&root1)/customer
WHERE $C/* = "NewYork"
RETURN $C`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc2.Materialize().Children); n != 1 {
		t.Fatalf("wildcard condition children = %d, want 1", n)
	}
}

// TestChainedInPlaceQueries: a query from a node of the result of a query
// from a node — decontextualization composes transitively.
func TestChainedInPlaceQueries(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec := doc.Root().Down().Right() // XYZ123 CustRec
	mid, err := med.QueryFrom(rec, `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 100000
RETURN <Cheap> $O </Cheap> {$O}`)
	if err != nil {
		t.Fatal(err)
	}
	cheap := mid.Root().Down()
	if cheap == nil || cheap.Label() != "Cheap" {
		t.Fatalf("first-level result: %v", cheap)
	}
	final, err := med.QueryFrom(mid.Root(), `
FOR $C IN document(root)/Cheap
    $T IN $C/OrderInfo/orders
WHERE $T/value < 500
RETURN $T`)
	if err != nil {
		t.Fatal(err)
	}
	m := final.Materialize()
	if err := final.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 1 {
		t.Fatalf("chained result children = %d, want 1 (order 31416):\n%s", len(m.Children), m.Pretty())
	}
	if orid := m.Children[0].Find("orid"); orid == nil || orid.Children[0].Label != "31416" {
		t.Fatalf("chained result wrong:\n%s", m.Pretty())
	}
}

// TestQueryFromOrderInfoNode: in-place queries from nodes bound inside the
// view's nested plan decontextualize via unnesting (extension over the
// materializing fallback).
func TestQueryFromOrderInfoNode(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	oi := doc.Root().Down().Right().Down().Right() // XYZ123's first OrderInfo
	if oi.Label() != "OrderInfo" {
		t.Fatalf("navigated to %q", oi.Label())
	}
	med.ResetStats()
	sub, err := med.QueryFrom(oi, `
FOR $T IN document(root)/orders
RETURN $T`)
	if err != nil {
		t.Fatal(err)
	}
	m := sub.Materialize()
	if err := sub.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 1 || string(m.Children[0].ID) != "&28904" {
		t.Fatalf("OrderInfo in-place query:\n%s", m.Pretty())
	}
	// The decontextualized path ships only what matches — at most the one
	// pinned order row.
	if shipped := med.Stats().TuplesShipped; shipped > 2 {
		t.Fatalf("shipped %d tuples; the fixations should have been pushed", shipped)
	}
}

// TestExplain: plans are inspectable without touching sources.
func TestExplain(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	med.ResetStats()
	p, err := med.Prepare(workload.Fig12, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, exec := p.Explain()
	if !strings.Contains(opt, "crElt(CustRec") {
		t.Fatalf("optimized plan:\n%s", opt)
	}
	if !strings.Contains(exec, "rQ(db1") || !strings.Contains(exec, "SELECT") {
		t.Fatalf("executable plan lacks SQL:\n%s", exec)
	}
	if shipped := med.Stats().TuplesShipped; shipped != 0 {
		t.Fatalf("Explain shipped %d tuples", shipped)
	}
	v, _ := med.View("rootv")
	vOpt, vExec := v.Explain()
	if !strings.Contains(vOpt, "tD(") || !strings.Contains(vExec, "rQ(") {
		t.Fatal("view Explain")
	}
}

// TestConcurrentQueries: independent queries run safely in parallel on one
// mediator (the catalog synchronizes registration vs. resolution).
func TestConcurrentQueries(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			doc, err := med.Query(workload.Fig12)
			if err != nil {
				done <- err
				return
			}
			doc.Materialize()
			done <- doc.Err()
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	cases := []string{
		`FOR $C IN`, // parse error
		`FOR $C IN document(&missing)/x RETURN $C`,      // unknown source
		`FOR $C IN document(&root1)/customer RETURN $Z`, // translate error
	}
	for _, src := range cases {
		if _, err := med.Query(src); err == nil {
			t.Errorf("Query(%q) succeeded, want error", src)
		}
	}
	if doc, err := med.Open("nosuchview"); err == nil {
		doc.Close()
		t.Error("Open of unknown view must fail")
	}
	if _, err := med.DefineView("bad", `FOR $C IN`); err == nil {
		t.Error("DefineView with bad query must fail")
	}
}

// TestXMLSourceNodeIdentity is a regression test: XML-source elements must
// receive distinct object ids, or elements constructed from different nodes
// get identical skolem ids and wrongly deduplicate (found via the federation
// example: two same-region suppliers collapsed into one Match).
func TestXMLSourceNodeIdentity(t *testing.T) {
	med := mix.New()
	if err := med.AddXMLSource("&sup", `
<list>
  <supplier><region>NY</region></supplier>
  <supplier><region>NY</region></supplier>
</list>`); err != nil {
		t.Fatal(err)
	}
	doc, err := med.Query(`
FOR $S IN document(&sup)/supplier
RETURN <Wrap> $S </Wrap>`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if len(m.Children) != 2 {
		t.Fatalf("two identical-valued suppliers must stay distinct, got %d:\n%s",
			len(m.Children), m.Pretty())
	}
	if m.Children[0].ID == m.Children[1].ID {
		t.Fatalf("constructed elements share an id: %s", m.Children[0].ID)
	}
}

// TestMediatorAsSource checks the federation hook: one mediator's virtual
// view serves as a lazy source of another.
func TestMediatorAsSource(t *testing.T) {
	lower := paperMediator(t, mix.Config{})
	lowerDoc, err := lower.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	upper := mix.New()
	upper.AddMediatorSource("&recs", lowerDoc)
	if n := lower.Stats().TuplesShipped; n != 0 {
		t.Fatalf("registering the source shipped %d tuples", n)
	}
	doc, err := upper.Query(`
FOR $R IN document(&recs)/CustRec
    $C IN $R/customer
WHERE $C/addr = "NewYork"
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 1 {
		t.Fatalf("federated query children = %d, want 1:\n%s", len(m.Children), m.Pretty())
	}
	if lower.Stats().TuplesShipped == 0 {
		t.Fatal("navigation should have pulled through to the lower source")
	}
}

// TestInPlaceQueryShipsLess verifies the paper's efficiency claim for
// decontextualization: answering an in-place query via composed SQL ships
// fewer tuples than materializing the subtree.
func TestInPlaceQueryShipsLess(t *testing.T) {
	q3 := `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 500
RETURN $O`

	med := paperMediator(t, mix.Config{})
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec := doc.Root().Down().Right()
	med.ResetStats()
	if _, err := med.QueryFrom(rec, q3); err != nil {
		t.Fatal(err)
	}
	// Decontextualized path plans only; shipping happens on navigation.
	decoDoc, _ := med.QueryFrom(rec, q3)
	decoDoc.Materialize()
	decon := med.Stats().TuplesShipped

	med2 := paperMediator(t, mix.Config{})
	doc2, err := med2.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec2 := doc2.Root().Down().Right()
	med2.ResetStats()
	mat, err := med2.QueryFromMaterialized(rec2, q3)
	if err != nil {
		t.Fatal(err)
	}
	mat.Materialize()
	matShipped := med2.Stats().TuplesShipped

	t.Logf("decontextualized shipped=%d, materialize-subtree shipped=%d", decon, matShipped)
	if decon > matShipped {
		t.Fatalf("decontextualization shipped more (%d) than materialization (%d)", decon, matShipped)
	}
}

// TestSchemaUnsatRule: the optimizer proves paths through undeclared
// columns unsatisfiable using the relational schemas (the paper's §6 remark
// about schema-aware rewrite rules) — nothing is shipped at all.
func TestSchemaUnsatRule(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	med.ResetStats()
	doc, err := med.Query(`
FOR $R IN document(rootv)/CustRec
    $X IN $R/customer/serialnumber
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Materialize().Children); n != 0 {
		t.Fatalf("children = %d, want 0", n)
	}
	if shipped := med.Stats().TuplesShipped; shipped != 0 {
		t.Fatalf("schema-unsat plan shipped %d tuples", shipped)
	}
	// Sanity: a declared column still works.
	doc2, err := med.Query(`
FOR $R IN document(rootv)/CustRec
    $X IN $R/customer/addr
WHERE $X = "NewYork"
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc2.Materialize().Children); n != 1 {
		t.Fatalf("declared-column query children = %d, want 1", n)
	}
}

// TestQueryWithMetrics exposes mediator work accounting at the facade.
func TestQueryWithMetrics(t *testing.T) {
	med := paperMediator(t, mix.Config{DisablePushdown: true})
	p, err := med.Prepare(workload.Fig12, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc, metrics, err := p.RunWithMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Total() != 0 {
		t.Fatalf("work before navigation: %s", metrics)
	}
	doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	if metrics.Total() == 0 {
		t.Fatal("no work recorded")
	}
	if metrics.Count("getD") == 0 || metrics.Count("mkSrc") == 0 {
		t.Fatalf("expected getD/mkSrc activity: %s", metrics)
	}
}

// TestPathPredicates: path predicates (an extension over Figure 4) desugar
// into bindings + WHERE conjuncts and push down like any other condition.
func TestPathPredicates(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	med.ResetStats()
	doc, err := med.Query(`
FOR $R IN document(rootv)/CustRec[customer/addr = "LosAngeles"]/OrderInfo
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	// XYZ123 (LosAngeles) has two OrderInfo children.
	if len(m.Children) != 2 {
		t.Fatalf("predicated path children = %d, want 2:\n%s", len(m.Children), m.Pretty())
	}

	// Trailing predicate binds the predicated node itself.
	doc2, err := med.Query(`
FOR $O IN document(&root2)/orders[value > 100000]
RETURN $O`)
	if err != nil {
		t.Fatal(err)
	}
	m2 := doc2.Materialize()
	if len(m2.Children) != 1 || string(m2.Children[0].ID) != "&87456" {
		t.Fatalf("trailing predicate:\n%s", m2.Pretty())
	}

	// Predicates combine with explicit WHERE clauses.
	doc3, err := med.Query(`
FOR $O IN document(&root2)/orders[value < 100000]
WHERE $O/cid = "XYZ123"
RETURN $O`)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc3.Materialize().Children); n != 2 {
		t.Fatalf("predicate+WHERE children = %d, want 2", n)
	}
}

// TestOrderByClause: the ORDER BY extension sorts result tuples by node ids
// through the XMAS orderBy operator.
func TestOrderByClause(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	doc, err := med.Query(`
FOR $O IN document(&root2)/orders
ORDER BY $O
RETURN $O`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if len(m.Children) != 4 {
		t.Fatalf("children = %d", len(m.Children))
	}
	prev := ""
	for _, c := range m.Children {
		if string(c.ID) < prev {
			t.Fatalf("not ordered: %s after %s", c.ID, prev)
		}
		prev = string(c.ID)
	}
	// Unbound order-by var errors.
	if _, err := med.Query(`FOR $O IN document(&root2)/orders ORDER BY $Z RETURN $O`); err == nil {
		t.Fatal("unbound ORDER BY variable accepted")
	}
}

// TestAuctionFloatColumns: end-to-end float comparisons (the intro
// scenario's autofocus-speed refinement) through translation, pushdown and
// the engine.
func TestAuctionFloatColumns(t *testing.T) {
	med := mix.New()
	med.AddRelationalSource(workload.AuctionDB(50, 4, 11))
	doc, err := med.Query(`
FOR $K IN document(&auction.camera)/camera
WHERE $K/afspeed < 0.4 AND $K/price < 500 AND $K/rating >= "medium"
RETURN $K`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) == 0 {
		t.Fatal("no camera matched; fixture should contain matches at this seed")
	}
	for _, cam := range m.Children {
		af := cam.Find("afspeed").Children[0].Label
		price := cam.Find("price").Children[0].Label
		rating := cam.Find("rating").Children[0].Label
		if !lessFloat(af, 0.4) {
			t.Fatalf("afspeed %s ≥ 0.4", af)
		}
		if !lessFloat(price, 500) {
			t.Fatalf("price %s ≥ 500", price)
		}
		if rating != "medium" {
			t.Fatalf("rating %q < medium", rating)
		}
	}
	// The combined predicate was pushed: shipped == matched cameras.
	if shipped := med.Stats().TuplesShipped; shipped != int64(len(m.Children)) {
		t.Fatalf("shipped %d tuples for %d matches", shipped, len(m.Children))
	}
}

func lessFloat(s string, bound float64) bool {
	var v float64
	if _, err := fmt.Sscanf(s, "%g", &v); err != nil {
		return false
	}
	return v < bound
}

// TestScaleSmoke drives the whole stack at a larger size: a selective
// composed query over 10k customers, checked for result size and bounded
// transfer. Skipped with -short.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke test")
	}
	med := rootvMediator(t, workload.ScaleDB("db1", 10_000, 3, 42), mix.Config{})
	doc, err := med.Query(`
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > 99900
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	// ~0.1% of 30k orders qualify; each hit keeps one customer.
	if len(m.Children) == 0 || len(m.Children) > 200 {
		t.Fatalf("results = %d, expected a small selective set", len(m.Children))
	}
	shipped := med.Stats().TuplesShipped
	if shipped > int64(10*len(m.Children)+50) {
		t.Fatalf("shipped %d tuples for %d results; pushdown regressed", shipped, len(m.Children))
	}
	// Lazy browse over the full view at scale: first page only.
	med.ResetStats()
	view, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	n := view.Root().Down()
	for i := 0; i < 9 && n != nil; i++ {
		n = n.Right()
	}
	if got := med.Stats().TuplesShipped; got > 100 {
		t.Fatalf("browsing 10 of 10000 shipped %d tuples", got)
	}
}

// TestExplainTrace: the live Figures 14-21 walk-through is exposed through
// the facade without contacting sources.
func TestExplainTrace(t *testing.T) {
	med := paperMediator(t, mix.Config{})
	med.ResetStats()
	p, err := med.Prepare(workload.Fig12, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps, exec, err := p.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if med.Stats().TuplesShipped != 0 {
		t.Fatal("Trace shipped tuples")
	}
	if len(steps) < 10 {
		t.Fatalf("trace too short: %d steps", len(steps))
	}
	if steps[0].Rule != "translate" || steps[len(steps)-1].Rule != "sql-split" {
		t.Fatalf("trace endpoints: %s ... %s", steps[0].Rule, steps[len(steps)-1].Rule)
	}
	ruleSeen := map[string]bool{}
	for _, s := range steps {
		ruleSeen[s.Rule] = true
		if s.Plan == "" {
			t.Fatalf("step %s has no plan", s.Rule)
		}
	}
	for _, want := range []string{"view-unfold(11)", "apply-unfold(9)", "semijoin-below-gBy(12)"} {
		if !ruleSeen[want] {
			t.Errorf("trace missing %s", want)
		}
	}
	if !strings.Contains(exec, "rQ(db1") {
		t.Fatalf("executable plan lacks the generated SQL:\n%s", exec)
	}
	// Non-view queries trace too.
	p2, err := med.Prepare(`FOR $C IN document(&root1)/customer WHERE $C/name < "E" RETURN $C`, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps2, _, err := p2.Trace()
	if err != nil || len(steps2) == 0 {
		t.Fatalf("plain trace: %v, %d", err, len(steps2))
	}
}

// TestInPlaceQueryOverNestedQueryView is the regression test for the rule-9
// path bug: when the apply's collect variable is itself list-valued (a
// flattened nested query), unfolding must keep the virtual "list" step.
func TestInPlaceQueryOverNestedQueryView(t *testing.T) {
	med := mix.New()
	if err := med.AddXMLSource("&bib", `
<bib>
  <book><title>A</title><author>Abiteboul</author><author>Buneman</author></book>
  <book><title>B</title><author>Vianu</author></book>
</bib>`); err != nil {
		t.Fatal(err)
	}
	doc, err := med.Query(`
FOR $B IN document(&bib)/book
RETURN
  <Pub>
    $B
    FOR $A IN $B/author
    RETURN <Writer> $A </Writer>
  </Pub> {$B}`)
	if err != nil {
		t.Fatal(err)
	}
	first := doc.Root().Down()
	got, err := med.QueryFrom(first, `FOR $W IN document(root)/Writer RETURN $W`)
	if err != nil {
		t.Fatal(err)
	}
	m := got.Materialize()
	if err := got.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 2 {
		t.Fatalf("writers = %d, want 2:\n%s", len(m.Children), m.Pretty())
	}
	// Cross-check against the materializing oracle.
	want, err := med.QueryFromMaterialized(first, `FOR $W IN document(root)/Writer RETURN $W`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Materialize().Children) != len(m.Children) {
		t.Fatalf("oracle disagreement: %d vs %d", len(want.Materialize().Children), len(m.Children))
	}
}

// TestDotLiteralsReachTheSource: a string literal that is a dot, or a dot
// and digits, is pushed to the source quoted. Printed bare it read as a
// column reference, the pushed SQL did not parse, and the query failed.
func TestDotLiteralsReachTheSource(t *testing.T) {
	db := buildShop()
	db.MustInsert("customer", mix.Str("C3"), mix.Str("Dot"), mix.Str("."))
	db.MustInsert("customer", mix.Str("C4"), mix.Str("Half"), mix.Str(".5"))
	med := mix.New()
	med.AddRelationalSource(db)
	for _, tc := range []struct{ addr, name string }{{".", "Dot"}, {".5", "Half"}} {
		doc, err := med.Query(`
FOR $C IN document(&shop.customer)/customer
WHERE $C/addr = "` + tc.addr + `"
RETURN $C`)
		if err != nil {
			t.Fatalf("addr = %q: %v", tc.addr, err)
		}
		var names []string
		for n := doc.Root().Down(); n != nil; n = n.Right() {
			names = append(names, n.Materialize().Find("name").Children[0].Label)
		}
		if err := doc.Err(); err != nil {
			t.Fatalf("addr = %q: %v", tc.addr, err)
		}
		if len(names) != 1 || names[0] != tc.name {
			t.Errorf("addr = %q: customers %v, want [%s]", tc.addr, names, tc.name)
		}
	}
}
