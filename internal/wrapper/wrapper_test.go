package wrapper_test

import (
	"mix/internal/wrapper"
	"testing"

	"mix/internal/relstore"
	"mix/internal/workload"
	"mix/internal/xtree"
)

// TestFigure2Wrapper reproduces paper Figure 2: the XML equivalent of a
// relational database, with tuple oids derived from the keys ("the
// relational database wrapper exporting the database assigns the tuple keys
// (eg, XYZ123) to be the oids of the corresponding tuple objects — after it
// precedes them with the &").
func TestFigure2Wrapper(t *testing.T) {
	db := workload.PaperDB()
	doc, ok := wrapper.Doc(db, "customer")
	if !ok {
		t.Fatal("customer relation missing")
	}
	if doc.Label != "list" {
		t.Fatalf("root label = %q, want list", doc.Label)
	}
	if string(doc.ID) != "&db1.customer" {
		t.Fatalf("root id = %q", doc.ID)
	}
	if len(doc.Children) != 2 {
		t.Fatalf("tuple children = %d", len(doc.Children))
	}
	tup := doc.Children[0]
	if tup.Label != "customer" {
		t.Fatalf("tuple label = %q", tup.Label)
	}
	if string(tup.ID) != "&XYZ123" {
		t.Fatalf("tuple oid = %q, want &XYZ123", tup.ID)
	}
	if len(tup.Children) != 3 {
		t.Fatalf("column children = %d", len(tup.Children))
	}
	id := tup.Children[0]
	if id.Label != "id" || string(id.ID) != "&XYZ123.id" {
		t.Fatalf("column element: label=%q id=%q", id.Label, id.ID)
	}
	v, ok := id.Children[0].Value()
	if !ok || v != "XYZ123" {
		t.Fatalf("column value = %q", v)
	}
	// Shape equals the paper's structure: list[customer[id[..],name[..],addr[..]], ...]
	want := "list[customer[id[XYZ123], name[XYZInc.], addr[LosAngeles]], customer[id[DEF345], name[DEFCorp.], addr[NewYork]]]"
	if doc.String() != want {
		t.Fatalf("wrapper doc = %s", doc)
	}
}

func TestDocUnknownRelation(t *testing.T) {
	db := workload.PaperDB()
	if _, ok := wrapper.Doc(db, "nope"); ok {
		t.Fatal("Doc accepted an unknown relation")
	}
}

func TestTupleOIDNoKey(t *testing.T) {
	s := relstore.Schema{
		Relation: "log",
		Columns:  []relstore.Column{{Name: "msg", Type: relstore.TString}},
	}
	row := []relstore.Datum{relstore.Str("hello")}
	if got := wrapper.TupleOID(s, row, 7); got != "&log.7" {
		t.Fatalf("surrogate oid = %q", got)
	}
}

func TestTupleOIDCompositeKey(t *testing.T) {
	s := relstore.Schema{
		Relation: "enroll",
		Columns: []relstore.Column{
			{Name: "student", Type: relstore.TString},
			{Name: "course", Type: relstore.TString},
		},
		Key: []int{0, 1},
	}
	row := []relstore.Datum{relstore.Str("S1"), relstore.Str("CSE232")}
	if got := wrapper.TupleOID(s, row, 0); got != "&S1.CSE232" {
		t.Fatalf("composite oid = %q", got)
	}
}

func TestRootID(t *testing.T) {
	if wrapper.RootID("db1", "orders") != "&db1.orders" {
		t.Fatal("RootID format")
	}
}

func TestWrapperMatchesTupleElem(t *testing.T) {
	db := workload.PaperDB()
	tab, _ := db.Table("orders")
	doc, _ := wrapper.Doc(db, "orders")
	for i, row := range tab.Rows() {
		direct := wrapper.TupleElem(tab.Schema, row, i)
		if !xtree.Equal(direct, doc.Children[i]) {
			t.Fatalf("tuple %d differs: %s vs %s", i, direct, doc.Children[i])
		}
	}
}
