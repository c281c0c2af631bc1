package source_test

import (
	"mix/internal/source"
	"testing"

	"mix/internal/workload"
	"mix/internal/xtree"
)

func TestCatalogResolveXML(t *testing.T) {
	cat := source.NewCatalog()
	root := xtree.NewElem("", "list", xtree.NewElem("&a", "item"))
	cat.AddXMLDoc("&doc", root)
	if string(root.ID) != "&doc" {
		t.Fatalf("root id defaulted to %q", root.ID)
	}
	d, err := cat.Resolve("&doc")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := d.Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n, ok, err := cur.Next()
	if err != nil || !ok || n.Label != "item" {
		t.Fatalf("cursor: %v %v %v", n, ok, err)
	}
	if _, ok, _ := cur.Next(); ok {
		t.Fatal("cursor should be exhausted")
	}
	cur.Close()
}

func TestCatalogResolveUnknown(t *testing.T) {
	cat := source.NewCatalog()
	if _, err := cat.Resolve("&missing"); err == nil {
		t.Fatal("unknown document resolved")
	}
}

func TestCatalogRelationalRegistration(t *testing.T) {
	db := workload.PaperDB()
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	ids := cat.DocIDs()
	want := []string{"&db1.customer", "&db1.orders"}
	if len(ids) != 2 || ids[0] != want[0] || ids[1] != want[1] {
		t.Fatalf("doc ids = %v", ids)
	}
	if _, ok := cat.RelDB("db1"); !ok {
		t.Fatal("server not registered")
	}
	rb, ok := cat.RelBindingFor("&db1.orders")
	if !ok || rb.Server != "db1" || rb.Relation != "orders" {
		t.Fatalf("binding = %+v", rb)
	}
}

func TestCatalogAlias(t *testing.T) {
	db := workload.PaperDB()
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	if err := cat.Alias("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := cat.Alias("&bad", "&missing"); err == nil {
		t.Fatal("alias to unknown target accepted")
	}
	if _, err := cat.Resolve("&root1"); err != nil {
		t.Fatal(err)
	}
	rb, ok := cat.RelBindingFor("&root1")
	if !ok || rb.Relation != "customer" {
		t.Fatalf("alias binding = %+v", rb)
	}
}

// TestRelDocPipelinedShipping: the wrapper view's cursor ships tuples one at
// a time; opening alone ships nothing.
func TestRelDocPipelinedShipping(t *testing.T) {
	db := workload.PaperDB()
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	d, err := cat.Resolve("&db1.orders")
	if err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	cur, err := d.Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().TuplesShipped; got != 0 {
		t.Fatalf("open shipped %d tuples", got)
	}
	n, ok, err := cur.Next()
	if err != nil || !ok {
		t.Fatalf("Next: %v %v", ok, err)
	}
	if got := db.Stats().TuplesShipped; got != 1 {
		t.Fatalf("one pull shipped %d tuples", got)
	}
	// Tuples arrive in key order and reconstruct wrapper shape.
	if n.Label != "orders" || string(n.ID) != "&28904" {
		t.Fatalf("first tuple: %s id=%s", n, n.ID)
	}
	cur.Close()
}

func TestCatalogStatsAggregation(t *testing.T) {
	cat, db := workload.PaperCatalog()
	db.NoteShipped(5)
	db.NoteQuery()
	s := cat.Stats()
	if s.TuplesShipped != 5 || s.QueriesReceived != 1 {
		t.Fatalf("stats = %+v", s)
	}
	cat.ResetStats()
	if s := cat.Stats(); s.TuplesShipped != 0 {
		t.Fatalf("reset: %+v", s)
	}
}
