package sqlexec

import (
	"reflect"
	"testing"

	"mix/internal/relstore"
)

func testDB() *relstore.DB {
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
	db.MustInsert("customer", relstore.Str("C1"), relstore.Str("Alice"), relstore.Str("LA"))
	db.MustInsert("customer", relstore.Str("C2"), relstore.Str("Bob"), relstore.Str("NY"))
	db.MustInsert("customer", relstore.Str("C3"), relstore.Str("Carol"), relstore.Str("LA"))
	db.MustInsert("orders", relstore.Str("O1"), relstore.Str("C1"), relstore.Int(100))
	db.MustInsert("orders", relstore.Str("O2"), relstore.Str("C1"), relstore.Int(2500))
	db.MustInsert("orders", relstore.Str("O3"), relstore.Str("C2"), relstore.Int(900))
	db.MustInsert("orders", relstore.Str("O4"), relstore.Str("CX"), relstore.Int(50))
	return db
}

func collect(t *testing.T, db *relstore.DB, sql string) [][]string {
	t.Helper()
	cur, _, err := ExecSQL(db, sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer cur.Close()
	var out [][]string
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		var r []string
		for _, d := range row {
			r = append(r, d.String())
		}
		out = append(out, r)
	}
	return out
}

func TestScanAndProject(t *testing.T) {
	rows := collect(t, testDB(), `SELECT name FROM customer`)
	want := [][]string{{"Alice"}, {"Bob"}, {"Carol"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestFilterPushdown(t *testing.T) {
	rows := collect(t, testDB(), `SELECT id FROM customer WHERE addr = 'LA'`)
	if len(rows) != 2 || rows[0][0] != "C1" || rows[1][0] != "C3" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestNumericFilter(t *testing.T) {
	rows := collect(t, testDB(), `SELECT orid FROM orders WHERE value >= 900`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEquiJoin(t *testing.T) {
	rows := collect(t, testDB(), `SELECT c.name, o.orid FROM customer c, orders o WHERE c.id = o.cid`)
	if len(rows) != 3 {
		t.Fatalf("join rows = %v", rows)
	}
	seen := map[string]string{}
	for _, r := range rows {
		seen[r[1]] = r[0]
	}
	if seen["O1"] != "Alice" || seen["O3"] != "Bob" {
		t.Fatalf("join pairs = %v", seen)
	}
}

func TestJoinWithExtraPredicate(t *testing.T) {
	rows := collect(t, testDB(), `SELECT c.name FROM customer c, orders o WHERE c.id = o.cid AND o.value > 1000`)
	if len(rows) != 1 || rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	rows := collect(t, testDB(), `SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid`)
	// C1 < {C2, CX}? cids are C1,C1,C2,CX: C1<C2, C1<CX; C2<CX; C3<CX.
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestSelfJoinFigure22Style(t *testing.T) {
	sql := `SELECT DISTINCT c1.id, o1.orid FROM customer c1, orders o1, customer c2, orders o2
WHERE c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id AND o2.value > 1000
ORDER BY c1.id, o1.orid`
	rows := collect(t, testDB(), sql)
	// Customers with an order over 1000: only C1 (O2=2500); their orders: O1, O2.
	want := [][]string{{"C1", "O1"}, {"C1", "O2"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestDistinct(t *testing.T) {
	rows := collect(t, testDB(), `SELECT DISTINCT addr FROM customer`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	rows = collect(t, testDB(), `SELECT addr FROM customer`)
	if len(rows) != 3 {
		t.Fatalf("without DISTINCT rows = %v", rows)
	}
}

// TestDistinctKeepsRowsThatJoinAlike: two rows are duplicates only when every
// value is; a row key made by joining the values with a separator byte
// merged ("a\x00", "b") with ("a", "\x00b").
func TestDistinctKeepsRowsThatJoinAlike(t *testing.T) {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "t",
		Columns:  []relstore.Column{{Name: "a", Type: relstore.TString}, {Name: "b", Type: relstore.TString}},
	})
	db.MustInsert("t", relstore.Str("a\x00"), relstore.Str("b"))
	db.MustInsert("t", relstore.Str("a"), relstore.Str("\x00b"))
	db.MustInsert("t", relstore.Str("a"), relstore.Str("\x00b"))
	rows := collect(t, db, `SELECT DISTINCT t1.a, t1.b FROM t t1`)
	want := [][]string{{"a\x00", "b"}, {"a", "\x00b"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %q, want %q", rows, want)
	}
}

func TestOrderBy(t *testing.T) {
	rows := collect(t, testDB(), `SELECT orid FROM orders ORDER BY value`)
	want := [][]string{{"O4"}, {"O1"}, {"O3"}, {"O2"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	rows := collect(t, testDB(), `SELECT cid, orid FROM orders ORDER BY cid, orid`)
	want := [][]string{{"C1", "O1"}, {"C1", "O2"}, {"C2", "O3"}, {"CX", "O4"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCursorCountsShippedTuples(t *testing.T) {
	db := testDB()
	db.ResetStats()
	cur, _, err := ExecSQL(db, `SELECT id FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().TuplesShipped; got != 0 {
		t.Fatalf("shipped before pulls = %d", got)
	}
	cur.Next()
	if got := db.Stats().TuplesShipped; got != 1 {
		t.Fatalf("shipped after one pull = %d", got)
	}
	cur.Close()
	if _, ok := cur.Next(); ok {
		t.Fatal("closed cursor must not deliver")
	}
	if got := db.Stats().QueriesReceived; got != 1 {
		t.Fatalf("queries received = %d", got)
	}
}

func TestResultMetadata(t *testing.T) {
	_, res, err := ExecSQL(testDB(), `SELECT value, cid FROM orders`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Types) != 2 || res.Types[0] != relstore.TInt || res.Types[1] != relstore.TString {
		t.Fatalf("types = %v", res.Types)
	}
}

func TestExecErrors(t *testing.T) {
	db := testDB()
	cases := []string{
		`SELECT id FROM missing`,
		`SELECT nosuch FROM customer`,
		`SELECT id FROM customer c, customer c`, // duplicate alias
		`SELECT id FROM customer, orders`,       // ambiguous? id unique; use name
		`SELECT customer.id FROM orders`,        // wrong qualifier
		`SELECT id FROM customer WHERE nosuch = 'x'`,
		`SELECT id FROM customer ORDER BY nosuch`,
	}
	for _, sql := range cases[0:3] {
		if _, _, err := ExecSQL(db, sql); err == nil {
			t.Errorf("ExecSQL(%q) succeeded, want error", sql)
		}
	}
	for _, sql := range cases[4:] {
		if _, _, err := ExecSQL(db, sql); err == nil {
			t.Errorf("ExecSQL(%q) succeeded, want error", sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := relstore.NewDB("x")
	db.MustCreate(relstore.Schema{Relation: "a", Columns: []relstore.Column{{Name: "k", Type: relstore.TInt}}})
	db.MustCreate(relstore.Schema{Relation: "b", Columns: []relstore.Column{{Name: "k", Type: relstore.TInt}}})
	if _, _, err := ExecSQL(db, `SELECT k FROM a, b WHERE a.k = b.k`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestCrossProduct(t *testing.T) {
	rows := collect(t, testDB(), `SELECT c.id, o.orid FROM customer c, orders o`)
	if len(rows) != 12 {
		t.Fatalf("cross product rows = %d, want 12", len(rows))
	}
}

func TestMixedTypeComparison(t *testing.T) {
	// value is INT; literal parses to the column type.
	rows := collect(t, testDB(), `SELECT orid FROM orders WHERE value = 100`)
	if len(rows) != 1 || rows[0][0] != "O1" {
		t.Fatalf("rows = %v", rows)
	}
}
