package workload_test

import (
	"testing"

	"mix/internal/workload"
	"mix/internal/xquery"
)

func TestPaperDBShape(t *testing.T) {
	db := workload.PaperDB()
	cust, ok := db.Table("customer")
	if !ok || len(cust.Rows()) != 2 {
		t.Fatalf("customer rows: %v", ok)
	}
	ord, ok := db.Table("orders")
	if !ok || len(ord.Rows()) != 4 {
		t.Fatalf("orders rows: %v", ok)
	}
	if cust.Schema.Key[0] != 0 {
		t.Fatal("customer key must be the id column")
	}
}

func TestPaperCatalogAliases(t *testing.T) {
	cat, _ := workload.PaperCatalog()
	for _, id := range []string{"&root1", "&root2", "&db1.customer", "&db1.orders"} {
		if _, err := cat.Resolve(id); err != nil {
			t.Errorf("resolve %s: %v", id, err)
		}
	}
}

func TestPaperQueriesParse(t *testing.T) {
	for name, src := range map[string]string{
		"Q1": workload.Q1, "Q2": workload.Q2, "Q3": workload.Q3, "Fig12": workload.Fig12,
	} {
		if _, err := xquery.Parse(src); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

func TestScaleDB(t *testing.T) {
	db := workload.ScaleDB("s", 10, 3, 42)
	cust, _ := db.Table("customer")
	ord, _ := db.Table("orders")
	if len(cust.Rows()) != 10 || len(ord.Rows()) != 30 {
		t.Fatalf("scale sizes: %d customers, %d orders", len(cust.Rows()), len(ord.Rows()))
	}
	// Reproducible.
	db2 := workload.ScaleDB("s", 10, 3, 42)
	ord2, _ := db2.Table("orders")
	for i := range ord.Rows() {
		if ord.Rows()[i][2] != ord2.Rows()[i][2] {
			t.Fatal("ScaleDB not reproducible")
		}
	}
	// Keys zero-padded: lexicographic == numeric order.
	if cust.Rows()[0][0].S >= cust.Rows()[1][0].S {
		t.Fatal("customer keys not ordered")
	}
}

func TestScaleCatalog(t *testing.T) {
	cat, db := workload.ScaleCatalog(5, 2, 1)
	if db == nil {
		t.Fatal("nil db")
	}
	if _, err := cat.Resolve("&root1"); err != nil {
		t.Fatal(err)
	}
}

func TestAuctionDB(t *testing.T) {
	db := workload.AuctionDB(4, 5, 7)
	cams, _ := db.Table("camera")
	lenses, _ := db.Table("lens")
	if len(cams.Rows()) != 4 || len(lenses.Rows()) != 20 {
		t.Fatalf("auction sizes: %d cameras, %d lenses", len(cams.Rows()), len(lenses.Rows()))
	}
	// Every lens references an existing camera.
	ids := map[string]bool{}
	for _, r := range cams.Rows() {
		ids[r[0].S] = true
	}
	for _, r := range lenses.Rows() {
		if !ids[r[1].S] {
			t.Fatalf("dangling lens camid %s", r[1].S)
		}
	}
}

func TestPaperXMLDoc(t *testing.T) {
	doc := workload.PaperXMLDoc("customer")
	if doc.Label != "list" || len(doc.Children) != 2 {
		t.Fatalf("xml doc: %s", doc)
	}
	if doc.Children[0].Label != "customer" {
		t.Fatalf("tuple label: %s", doc.Children[0].Label)
	}
}
