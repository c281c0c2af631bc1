// Package workload builds the datasets the tests, examples and experiments
// run against: the paper's running example (the customer/orders database of
// Figure 2), the eBay-style auction scenario of the paper's introduction,
// and parametric generators for the performance experiments.
package workload

import (
	"fmt"
	"math/rand"

	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/xtree"
)

// PaperDB builds the relational database of paper Figure 2: relations
// customer(id, name, addr) and orders(orid, cid, value), slightly enriched
// so grouping and selections have something to bite on (customer XYZ123 has
// two orders; one order references no known customer, as in the figure).
func PaperDB() *relstore.DB {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "customer",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "name", Type: relstore.TString},
			{Name: "addr", Type: relstore.TString},
		},
		Key: []int{0},
	})
	db.MustCreate(relstore.Schema{
		Relation: "orders",
		Columns: []relstore.Column{
			{Name: "orid", Type: relstore.TString},
			{Name: "cid", Type: relstore.TString},
			{Name: "value", Type: relstore.TInt},
		},
		Key: []int{0},
	})
	db.MustInsert("customer", relstore.Str("XYZ123"), relstore.Str("XYZInc."), relstore.Str("LosAngeles"))
	db.MustInsert("customer", relstore.Str("DEF345"), relstore.Str("DEFCorp."), relstore.Str("NewYork"))
	db.MustInsert("orders", relstore.Str("28904"), relstore.Str("XYZ123"), relstore.Int(2400))
	db.MustInsert("orders", relstore.Str("87456"), relstore.Str("ABC000"), relstore.Int(200000))
	db.MustInsert("orders", relstore.Str("31416"), relstore.Str("XYZ123"), relstore.Int(150))
	db.MustInsert("orders", relstore.Str("59265"), relstore.Str("DEF345"), relstore.Int(30000))
	return db
}

// PaperCatalog builds a source catalog over PaperDB with the aliases the
// paper's figures use: &root1 is the customer view, &root2 the orders view.
func PaperCatalog() (*source.Catalog, *relstore.DB) {
	db := PaperDB()
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	if err := cat.Alias("&root1", "&db1.customer"); err != nil {
		panic(err)
	}
	if err := cat.Alias("&root2", "&db1.orders"); err != nil {
		panic(err)
	}
	return cat, db
}

// Q1 is the paper's Figure 3 view: one CustRec per customer, containing the
// customer element and one OrderInfo per matching order.
const Q1 = `
FOR $C IN source(&root1)/customer
    $O IN document(&root2)/orders
WHERE $C/id/data() = $O/cid/data()
RETURN
  <CustRec>
    $C
    <OrderInfo>
      $O
    </OrderInfo> {$O}
  </CustRec> {$C}
`

// Q2 is the refinement of paper Example 2.1: CustRec subobjects whose
// customer name starts with a letter below "B".
const Q2 = `
FOR $P IN document(root)/CustRec
WHERE $P/customer/name < "B"
RETURN $P
`

// Q3 is the in-place query of paper Example 2.1, issued from a CustRec node:
// its OrderInfo children with order value below 500.
const Q3 = `
FOR $O IN document(root)/OrderInfo
WHERE $O/order/value < 500
RETURN $O
`

// Fig12 is the paper's Figure 12 query over the view: customers that have
// at least one order above 20000. (The paper writes the inner step "order";
// our wrapper labels tuple elements with the relation name "orders".)
const Fig12 = `
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > 20000
RETURN $R
`

// ScaleDB builds a customers/orders database with nCustomers customers and
// ordersPer orders each, for the performance experiments. Keys are zero-
// padded so lexicographic and numeric orders agree. The rng seed makes runs
// reproducible.
func ScaleDB(name string, nCustomers, ordersPer int, seed int64) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB(name)
	db.MustCreate(relstore.Schema{
		Relation: "customer",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "name", Type: relstore.TString},
			{Name: "addr", Type: relstore.TString},
		},
		Key: []int{0},
	})
	db.MustCreate(relstore.Schema{
		Relation: "orders",
		Columns: []relstore.Column{
			{Name: "orid", Type: relstore.TString},
			{Name: "cid", Type: relstore.TString},
			{Name: "value", Type: relstore.TInt},
		},
		Key: []int{0},
	})
	cities := []string{"LosAngeles", "NewYork", "SanDiego", "Chicago", "Austin"}
	orid := 0
	for c := 0; c < nCustomers; c++ {
		id := fmt.Sprintf("C%06d", c)
		db.MustInsert("customer",
			relstore.Str(id),
			relstore.Str(fmt.Sprintf("Corp%06d", c)),
			relstore.Str(cities[c%len(cities)]))
		for o := 0; o < ordersPer; o++ {
			db.MustInsert("orders",
				relstore.Str(fmt.Sprintf("O%08d", orid)),
				relstore.Str(id),
				relstore.Int(int64(rng.Intn(100_000))))
			orid++
		}
	}
	return db
}

// ScaleCatalog registers a ScaleDB with the &root1/&root2 aliases.
func ScaleCatalog(nCustomers, ordersPer int, seed int64) (*source.Catalog, *relstore.DB) {
	db := ScaleDB("db1", nCustomers, ordersPer, seed)
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	if err := cat.Alias("&root1", "&db1.customer"); err != nil {
		panic(err)
	}
	if err := cat.Alias("&root2", "&db1.orders"); err != nil {
		panic(err)
	}
	return cat, db
}

// AuctionDB builds the eBay-style photo-equipment scenario of the paper's
// introduction: cameras with prices, autofocus speeds and magazine ratings,
// and lenses with prices, diameters, owner locations and camera matches.
func AuctionDB(nCameras, lensesPer int, seed int64) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	db := relstore.NewDB("auction")
	db.MustCreate(relstore.Schema{
		Relation: "camera",
		Columns: []relstore.Column{
			{Name: "cid", Type: relstore.TString},
			{Name: "model", Type: relstore.TString},
			{Name: "price", Type: relstore.TInt},
			{Name: "afspeed", Type: relstore.TFloat},
			{Name: "rating", Type: relstore.TString},
		},
		Key: []int{0},
	})
	db.MustCreate(relstore.Schema{
		Relation: "lens",
		Columns: []relstore.Column{
			{Name: "lid", Type: relstore.TString},
			{Name: "camid", Type: relstore.TString},
			{Name: "price", Type: relstore.TInt},
			{Name: "diameter", Type: relstore.TInt},
			{Name: "owner_region", Type: relstore.TString},
		},
		Key: []int{0},
	})
	ratings := []string{"low", "medium", "high"}
	regions := []string{"SoCal", "NorCal", "East", "Midwest"}
	lid := 0
	for c := 0; c < nCameras; c++ {
		id := fmt.Sprintf("CAM%05d", c)
		db.MustInsert("camera",
			relstore.Str(id),
			relstore.Str(fmt.Sprintf("Nikon%d", 100+c)),
			relstore.Int(int64(100+rng.Intn(900))),
			relstore.Float(0.1+rng.Float64()*0.9),
			relstore.Str(ratings[rng.Intn(len(ratings))]))
		for l := 0; l < lensesPer; l++ {
			db.MustInsert("lens",
				relstore.Str(fmt.Sprintf("LENS%07d", lid)),
				relstore.Str(id),
				relstore.Int(int64(50+rng.Intn(450))),
				relstore.Int(int64(5+rng.Intn(20))),
				relstore.Str(regions[rng.Intn(len(regions))]))
			lid++
		}
	}
	return db
}

// PaperXMLDoc builds, directly as a tree, the same data PaperDB exports
// through the wrapper — used by XML-file-source tests and the federation
// example.
func PaperXMLDoc(relation string) *xtree.Node {
	db := PaperDB()
	t, _ := db.Table(relation)
	root := &xtree.Node{ID: xtree.ID("&xml." + relation), Label: "list"}
	for i, row := range t.Rows() {
		elem := &xtree.Node{ID: xtree.ID(fmt.Sprintf("&x%s%d", relation, i)), Label: relation}
		for j, col := range t.Schema.Columns {
			elem.Children = append(elem.Children, &xtree.Node{
				Label:    col.Name,
				Children: []*xtree.Node{{Label: row[j].String()}},
			})
		}
		root.Children = append(root.Children, elem)
	}
	return root
}

// QSupply is the skewed federated three-way join of experiment E20: items
// with low-quantity stock, checked against their supplier. Only $I reaches
// the result, so both joins become semi-join filters on item, supplier
// (db2) first as the query binds them. SQL pushdown applies the highly
// selective stock filter (db1) first instead and merges it into item's
// query, so db1 ships only the items in stock.
const QSupply = `
FOR $I IN document(&db1.item)/item
    $S IN document(&db2.supplier)/supplier
    $K IN document(&db1.stock)/stock
WHERE $I/sid/data() = $S/sid/data() AND $I/iid/data() = $K/iid/data() AND $K/qty < 5
RETURN
  <Avail>
    $I
  </Avail> {$I}
`

// SupplyDBs builds QSupply's two servers: db1 holds item and stock, db2
// holds supplier. Stock quantities are uniform in 1..100, so the qty < 5
// filter is highly selective (~4%) — the skew that makes join order matter.
func SupplyDBs(nItems, nSuppliers, stockPer int, seed int64) (db1, db2 *relstore.DB) {
	rng := rand.New(rand.NewSource(seed))
	db1 = relstore.NewDB("db1")
	db1.MustCreate(relstore.Schema{
		Relation: "item",
		Columns: []relstore.Column{
			{Name: "iid", Type: relstore.TString},
			{Name: "descr", Type: relstore.TString},
			{Name: "sid", Type: relstore.TString},
		},
		Key: []int{0},
	})
	db1.MustCreate(relstore.Schema{
		Relation: "stock",
		Columns: []relstore.Column{
			{Name: "skid", Type: relstore.TString},
			{Name: "iid", Type: relstore.TString},
			{Name: "qty", Type: relstore.TInt},
		},
		Key: []int{0},
	})
	db2 = relstore.NewDB("db2")
	db2.MustCreate(relstore.Schema{
		Relation: "supplier",
		Columns: []relstore.Column{
			{Name: "sid", Type: relstore.TString},
			{Name: "sname", Type: relstore.TString},
		},
		Key: []int{0},
	})
	for s := 0; s < nSuppliers; s++ {
		db2.MustInsert("supplier",
			relstore.Str(fmt.Sprintf("SUP%04d", s)),
			relstore.Str(fmt.Sprintf("Supplier%d", s)))
	}
	skid := 0
	for i := 0; i < nItems; i++ {
		id := fmt.Sprintf("ITEM%05d", i)
		db1.MustInsert("item",
			relstore.Str(id),
			relstore.Str(fmt.Sprintf("Part%d", i)),
			relstore.Str(fmt.Sprintf("SUP%04d", i%nSuppliers)))
		for k := 0; k < stockPer; k++ {
			db1.MustInsert("stock",
				relstore.Str(fmt.Sprintf("SK%07d", skid)),
				relstore.Str(id),
				relstore.Int(int64(1+rng.Intn(100))))
			skid++
		}
	}
	return db1, db2
}
