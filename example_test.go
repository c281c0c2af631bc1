package mix_test

import (
	"fmt"

	"mix"
)

// buildShop creates the small relational source the examples share.
func buildShop() *mix.DB {
	db := mix.NewDB("shop")
	db.MustCreate(mix.Schema{
		Relation: "customer",
		Columns: []mix.Column{
			{Name: "id", Type: mix.TString},
			{Name: "name", Type: mix.TString},
			{Name: "addr", Type: mix.TString},
		},
		Key: []int{0},
	})
	db.MustCreate(mix.Schema{
		Relation: "orders",
		Columns: []mix.Column{
			{Name: "orid", Type: mix.TString},
			{Name: "cid", Type: mix.TString},
			{Name: "value", Type: mix.TInt},
		},
		Key: []int{0},
	})
	db.MustInsert("customer", mix.Str("A1"), mix.Str("Ada"), mix.Str("LA"))
	db.MustInsert("customer", mix.Str("B2"), mix.Str("Bob"), mix.Str("NY"))
	db.MustInsert("orders", mix.Str("O1"), mix.Str("A1"), mix.Int(120))
	db.MustInsert("orders", mix.Str("O2"), mix.Str("A1"), mix.Int(80000))
	db.MustInsert("orders", mix.Str("O3"), mix.Str("B2"), mix.Int(300))
	return db
}

// ExampleMediator_Query shows a selection pushed down to the source.
func ExampleMediator_Query() {
	med := mix.New()
	med.AddRelationalSource(buildShop())

	doc, err := med.Query(`
FOR $C IN document(&shop.customer)/customer
WHERE $C/addr = "LA"
RETURN $C`)
	if err != nil {
		panic(err)
	}
	for n := doc.Root().Down(); n != nil; n = n.Right() {
		name := n.Materialize().Find("name")
		fmt.Println(name.Children[0].Label)
	}
	fmt.Println("shipped:", med.Stats().TuplesShipped)
	// Output:
	// Ada
	// shipped: 1
}

// ExampleMediator_QueryFrom shows an in-place query issued from a node
// reached by navigation — the QDOM q command.
func ExampleMediator_QueryFrom() {
	med := mix.New()
	med.AddRelationalSource(buildShop())
	if _, err := med.DefineView("rootv", `
FOR $C IN document(&shop.customer)/customer
    $O IN document(&shop.orders)/orders
WHERE $C/id/data() = $O/cid/data()
RETURN
  <CustRec> $C <OrderInfo> $O </OrderInfo> {$O} </CustRec> {$C}`); err != nil {
		panic(err)
	}

	doc, err := med.Open("rootv")
	if err != nil {
		panic(err)
	}
	ada := doc.Root().Down() // Ada's CustRec (key order)
	cheap, err := med.QueryFrom(ada, `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 1000
RETURN $O`)
	if err != nil {
		panic(err)
	}
	for n := cheap.Root().Down(); n != nil; n = n.Right() {
		orid := n.Materialize().Find("orid")
		fmt.Println(orid.Children[0].Label)
	}
	// Output:
	// O1
}

// ExamplePlan_Explain shows plan inspection without execution: Prepare
// plans the query, and nothing ships until the plan runs.
func ExamplePlan_Explain() {
	med := mix.New()
	med.AddRelationalSource(buildShop())
	p, err := med.Prepare(`
FOR $C IN document(&shop.customer)/customer
WHERE $C/addr = "LA"
RETURN $C`, nil)
	if err != nil {
		panic(err)
	}
	_, exec := p.Explain()
	fmt.Println(exec)
	// Output:
	// tD($C, result1)
	//   rQ(shop, "SELECT c1.id, c1.name, c1.addr FROM customer c1 WHERE c1.addr = 'LA' ORDER BY c1.id", {$doc=customer{1:id,2:name,3:addr}; $C=customer{1:id,2:name,3:addr}; $1=addr{3:}})
}
