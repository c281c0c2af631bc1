package sqlgen_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mix/internal/engine"
	"mix/internal/relstore"
	"mix/internal/rewrite"
	"mix/internal/source"
	"mix/internal/sqlgen"
	"mix/internal/translate"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmlio"
	"mix/internal/xquery"
	"mix/internal/xtree"
)

// supplyCatalog is the E20 supply federation (db1: item and stock, db2:
// supplier), with a keyless relation lot(iid, sid) beside them on db1.
func supplyCatalog() (cat *source.Catalog, db1, db2 *relstore.DB) {
	db1, db2 = workload.SupplyDBs(300, 30, 1, 20020208)
	db1.MustCreate(relstore.Schema{Relation: "lot", Columns: []relstore.Column{
		{Name: "iid", Type: relstore.TString}, {Name: "sid", Type: relstore.TString}}})
	for i := 19; i >= 0; i-- {
		db1.MustInsert("lot", relstore.Str(fmt.Sprintf("ITEM%05d", i)), relstore.Str(fmt.Sprintf("SUP%04d", i)))
	}
	cat = source.NewCatalog()
	cat.AddRelDB(db1)
	cat.AddRelDB(db2)
	return cat, db1, db2
}

// supplyRun pushes plan with push over a fresh supply federation, runs it,
// and returns the pushed plan, the serialized answer, and the tuples shipped
// and queries received by both servers.
func supplyRun(t *testing.T, plan xmas.Op, push func(xmas.Op, *source.Catalog) (xmas.Op, error)) (xmas.Op, string, int64, int64) {
	t.Helper()
	cat, db1, db2 := supplyCatalog()
	pushed, err := push(plan, cat)
	if err != nil {
		t.Fatalf("push: %v\n%s", err, xmas.Format(plan))
	}
	prog, err := engine.Compile(pushed, cat)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, xmas.Format(pushed))
	}
	res := prog.Run()
	answer := xmlio.Serialize(res.Materialize())
	if err := res.Err(); err != nil {
		t.Fatalf("run: %v\n%s", err, xmas.Format(pushed))
	}
	s1, s2 := db1.Stats(), db2.Stats()
	return pushed, answer, s1.TuplesShipped + s2.TuplesShipped, s1.QueriesReceived + s2.QueriesReceived
}

// checkFold runs plan pushed without the semi-join fold and with it. The
// answers must be byte-identical, and the folded plan may ship no more
// tuples and send no more queries. It reports whether the fold changed the
// pushed plan, and the tuples shipped and queries sent, unfolded then
// folded.
func checkFold(t *testing.T, plan xmas.Op) (folded bool, shipped, queries [2]int64) {
	t.Helper()
	off, offAnswer, offShipped, offQueries := supplyRun(t, plan, sqlgen.PushUnfolded)
	on, onAnswer, onShipped, onQueries := supplyRun(t, plan, sqlgen.Push)
	if onAnswer != offAnswer {
		t.Fatalf("folding changed the answer\nunfolded:\n%s\nfolded:\n%s\nwant:\n%s\ngot:\n%s",
			xmas.Format(off), xmas.Format(on), offAnswer, onAnswer)
	}
	if onShipped > offShipped || onQueries > offQueries {
		t.Fatalf("folded plan ships %d tuples in %d queries, unfolded %d in %d\nunfolded:\n%s\nfolded:\n%s",
			onShipped, onQueries, offShipped, offQueries, xmas.Format(off), xmas.Format(on))
	}
	return xmas.Format(on) != xmas.Format(off), [2]int64{offShipped, onShipped}, [2]int64{offQueries, onQueries}
}

// chainGen builds semi-join chains over the supply federation.
type chainGen struct {
	rng *rand.Rand
	n   int // variables issued so far
}

func (g *chainGen) fresh() xmas.Var {
	g.n++
	return xmas.Var(fmt.Sprintf("$v%d", g.n))
}

// supplyRels are the federation's relations: server, name, the columns a
// semi-join can match on (named by domain: an item id or a supplier id, the
// column of the same name), and the column and constant of a selection a
// leaf may carry.
var supplyRels = []struct {
	db, name string
	match    []string
	selCol   string
	selConst func(*rand.Rand) string
}{
	{"db1", "item", []string{"iid", "sid"}, "iid",
		func(r *rand.Rand) string { return fmt.Sprintf("ITEM%05d", r.Intn(300)) }},
	{"db1", "stock", []string{"iid"}, "qty",
		func(r *rand.Rand) string { return fmt.Sprint(1 + r.Intn(100)) }},
	{"db2", "supplier", []string{"sid"}, "sid",
		func(r *rand.Rand) string { return fmt.Sprintf("SUP%04d", r.Intn(30)) }},
}

// leaf scans relation rel, binds its tuple variable and its match columns
// (returned by column name), and may select on it.
func (g *chainGen) leaf(rel int) (op xmas.Op, tuple xmas.Var, cols map[string]xmas.Var) {
	r := supplyRels[rel]
	doc, tuple := g.fresh(), g.fresh()
	op = &xmas.MkSrc{SrcID: "&" + r.db + "." + r.name, Out: doc}
	op = &xmas.GetD{In: op, From: doc, Path: xmas.Path{r.name}, Out: tuple}
	cols = map[string]xmas.Var{}
	bind := func(col string) xmas.Var {
		if v, ok := cols[col]; ok {
			return v
		}
		v := g.fresh()
		op = &xmas.GetD{In: op, From: tuple, Path: xmas.Path{r.name, col}, Out: v}
		cols[col] = v
		return v
	}
	for _, col := range r.match {
		bind(col)
	}
	if g.rng.Intn(2) == 0 {
		op = &xmas.Select{In: op, Cond: xmas.Cond{
			Left: xmas.VarOperand(bind(r.selCol)), Op: xtree.OpLT, Right: xmas.ConstOperand(r.selConst(g.rng))}}
	}
	return op, tuple, cols
}

// filter builds a filtering side that exposes a column of the given domain:
// a scan of a relation that has one, or items filtered by a semi-join with
// the relation the domain does not reach directly (supplier for an item id,
// stock for a supplier id), which puts a cross-server or a db1 subtree in
// the filter's place.
func (g *chainGen) filter(domain string) (xmas.Op, xmas.Var) {
	var direct []int
	for i, r := range supplyRels {
		if slices.Contains(r.match, domain) {
			direct = append(direct, i)
		}
	}
	if pick := g.rng.Intn(len(direct) + 1); pick < len(direct) {
		op, _, cols := g.leaf(direct[pick])
		return op, cols[domain]
	}
	items, _, icols := g.leaf(0)
	other, via := 2, "sid" // items of listed suppliers
	if domain == "sid" {
		other, via = 1, "iid" // items in stock
	}
	op, _, ocols := g.leaf(other)
	return &xmas.SemiJoin{L: items, R: op, Keep: xmas.KeepLeft,
		Cond: &xmas.Cond{Left: xmas.VarOperand(icols[via]), Op: xtree.OpEQ, Right: xmas.VarOperand(ocols[via])}}, icols[domain]
}

// chain builds a semi-join chain of 2–4 filters over a base drawn from the
// three relations, each filter kept on the left or the right, under a tD
// that exports the base's tuples.
func (g *chainGen) chain() xmas.Op {
	rel := g.rng.Intn(len(supplyRels))
	cur, tuple, cols := g.leaf(rel)
	domains := supplyRels[rel].match
	for i, n := 0, 2+g.rng.Intn(3); i < n; i++ {
		d := domains[g.rng.Intn(len(domains))]
		other, ov := g.filter(d)
		cond := &xmas.Cond{Left: xmas.VarOperand(cols[d]), Op: xtree.OpEQ, Right: xmas.VarOperand(ov)}
		if g.rng.Intn(2) == 0 {
			cur = &xmas.SemiJoin{L: cur, R: other, Cond: cond, Keep: xmas.KeepLeft}
		} else {
			cur = &xmas.SemiJoin{L: other, R: cur, Cond: cond, Keep: xmas.KeepRight}
		}
	}
	return &xmas.TD{In: cur, V: tuple, RootID: "result"}
}

// semiFoldSeeds is the fixed seed set; at least minFoldedShare of its chains
// must fold, so the equivalence checks cannot pass vacuously.
const (
	semiFoldSeeds  = 40
	minFoldedShare = 0.4
)

// FuzzSemiFold: a semi-join chain over the supply federation answers the
// same bytes with the fold on and off, and folding never ships more tuples
// or sends more queries. The seed set runs as an ordinary test.
func FuzzSemiFold(f *testing.F) {
	folded := 0
	for seed := int64(0); seed < semiFoldSeeds; seed++ {
		f.Add(seed)
		plan := (&chainGen{rng: rand.New(rand.NewSource(seed))}).chain()
		cat, _, _ := supplyCatalog()
		on, err1 := sqlgen.Push(plan, cat)
		off, err2 := sqlgen.PushUnfolded(plan, cat)
		if err1 != nil || err2 != nil {
			f.Fatalf("seed %d: push: %v, %v", seed, err1, err2)
		}
		if xmas.Format(on) != xmas.Format(off) {
			folded++
		}
	}
	if share := float64(folded) / semiFoldSeeds; share < minFoldedShare {
		f.Fatalf("only %d of %d seed chains fold; the checks would pass vacuously", folded, semiFoldSeeds)
	}
	f.Logf("%d of %d seed chains fold", folded, semiFoldSeeds)
	f.Fuzz(func(t *testing.T, seed int64) {
		plan := (&chainGen{rng: rand.New(rand.NewSource(seed))}).chain()
		if err := xmas.Verify(plan); err != nil {
			t.Fatalf("generated an invalid plan: %v\n%s", err, xmas.Format(plan))
		}
		checkFold(t, plan)
	})
}

// supplyLoose is E20's second three-way join: a loose stock filter.
const supplyLoose = `
FOR $I IN document(&db1.item)/item
    $S IN document(&db2.supplier)/supplier
    $K IN document(&db1.stock)/stock
WHERE $I/sid/data() = $S/sid/data() AND $I/iid/data() = $K/iid/data() AND $K/qty < 40
RETURN
  <Avail>
    $I
  </Avail> {$I}`

// TestSemiFoldE20: E20's three-way joins filter items by supplier (db2)
// before stock (db1). Pushed in that order they ship every item; folding
// the stock filter into the item query ships only the items in stock.
func TestSemiFoldE20(t *testing.T) {
	for _, tc := range []struct {
		name           string
		query          string
		shipped, trips [2]int64 // unfolded, folded
	}{
		{"QSupply", workload.QSupply, [2]int64{335, 35}, [2]int64{3, 2}},
		{"loose", supplyLoose, [2]int64{438, 138}, [2]int64{3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := translate.Translate(xquery.MustParse(tc.query), "result")
			if err != nil {
				t.Fatal(err)
			}
			plan, _, err := rewrite.Optimize(tr.Plan, rewrite.Options{})
			if err != nil {
				t.Fatal(err)
			}
			folded, shipped, trips := checkFold(t, plan)
			if !folded {
				t.Fatalf("the chain did not fold:\n%s", xmas.Format(plan))
			}
			if shipped != tc.shipped {
				t.Fatalf("tuples shipped unfolded, folded: %v, want %v", shipped, tc.shipped)
			}
			if trips != tc.trips {
				t.Fatalf("source queries unfolded, folded: %v, want %v", trips, tc.trips)
			}
		})
	}
}

// TestSemiFoldNeedsKeys: the rows of a keyless relation share one id, so a
// mediator semi-join keeps only the first of them that passes, and which
// one that is depends on the order the filters run in. Filtering lot by
// supplier first keeps ITEM00019, which the stock filter then drops; by
// stock first, it keeps ITEM00011. A chain over a keyless base is pushed in
// its own order.
func TestSemiFoldNeedsKeys(t *testing.T) {
	g := &chainGen{rng: rand.New(rand.NewSource(1))}
	doc, lot, iid, sid := g.fresh(), g.fresh(), g.fresh(), g.fresh()
	var base xmas.Op = &xmas.MkSrc{SrcID: "&db1.lot", Out: doc}
	base = &xmas.GetD{In: base, From: doc, Path: xmas.Path{"lot"}, Out: lot}
	base = &xmas.GetD{In: base, From: lot, Path: xmas.Path{"lot", "iid"}, Out: iid}
	base = &xmas.GetD{In: base, From: lot, Path: xmas.Path{"lot", "sid"}, Out: sid}
	kdoc, k, kiid, kqty := g.fresh(), g.fresh(), g.fresh(), g.fresh()
	var stock xmas.Op = &xmas.MkSrc{SrcID: "&db1.stock", Out: kdoc}
	stock = &xmas.GetD{In: stock, From: kdoc, Path: xmas.Path{"stock"}, Out: k}
	stock = &xmas.GetD{In: stock, From: k, Path: xmas.Path{"stock", "iid"}, Out: kiid}
	stock = &xmas.GetD{In: stock, From: k, Path: xmas.Path{"stock", "qty"}, Out: kqty}
	stock = &xmas.Select{In: stock, Cond: xmas.Cond{Left: xmas.VarOperand(kqty), Op: xtree.OpLT, Right: xmas.ConstOperand("37")}}
	suppliers, _, scols := g.leaf(2)
	eq := func(a, b xmas.Var) *xmas.Cond {
		return &xmas.Cond{Left: xmas.VarOperand(a), Op: xtree.OpEQ, Right: xmas.VarOperand(b)}
	}
	chain := &xmas.SemiJoin{Keep: xmas.KeepLeft, Cond: eq(iid, kiid), R: stock,
		L: &xmas.SemiJoin{Keep: xmas.KeepLeft, Cond: eq(sid, scols["sid"]), L: base, R: suppliers}}
	if folded, _, _ := checkFold(t, &xmas.TD{In: chain, V: lot, RootID: "result"}); folded {
		t.Fatal("a chain over a keyless base folded")
	}
}
