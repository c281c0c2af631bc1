package sqlexec_test

import (
	"fmt"
	"reflect"
	"testing"

	"mix/internal/relstore"
	"mix/internal/sqlexec"
	"mix/internal/workload"
)

// The queries bench/ sends to a ScaleDB: the browse view, the in-place query
// under one CustRec, and Fig12 over the view.
const (
	browseSQL  = `SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid`
	inplaceSQL = `SELECT DISTINCT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1, customer c2, orders o2 WHERE c1.id = 'C000007' AND o1.value < 50000 AND c1.id = o1.cid AND c2.id = 'C000007' AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c1.id, o1.orid`
	fig12SQL   = `SELECT DISTINCT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`
)

// TestHandCasesEqualReference: the shapes plan_test.go pins, and the states
// of the data that decide between them, return the reference's rows in the
// reference's order.
func TestHandCasesEqualReference(t *testing.T) {
	dbs := map[string]*relstore.DB{"scale": workload.ScaleDB("db1", 30, 3, 1)}
	for _, v := range variants {
		dbs[v] = variantDB(v, 3)
	}
	for name, db := range dbs {
		for _, sql := range []string{
			browseSQL, inplaceSQL, fig12SQL,
			fig12AllSQL, fig12ByOrderSQL, keysAgainstFromSQL, existsMidSQL, existsAloneSQL, existsTriangleSQL,
			`SELECT id FROM customer ORDER BY id`,
			`SELECT orid FROM orders WHERE cid = 'C000003' AND value > 5 ORDER BY orid`,
			`SELECT orid FROM orders WHERE 'XYZ123' = cid`,
			`SELECT name FROM customer WHERE id = '10'`,
			`SELECT orid FROM orders ORDER BY cid`,
			`SELECT c.id FROM customer c, orders o WHERE c.id = o.cid ORDER BY o.orid, c.id`,
			`SELECT c.id FROM customer c, orders o WHERE c.id = o.cid ORDER BY o.orid`,
			`SELECT c.id, o.orid FROM orders o, customer c WHERE c.id = o.cid ORDER BY o.orid, c.id`,
			`SELECT c.id, o.orid FROM customer c, orders o WHERE c.id < o.cid AND o.value > 30000 ORDER BY c.id`,
			`SELECT orid FROM orders WHERE orid = cid`,
			`SELECT id FROM customer WHERE 1 = 2`,
		} {
			sameRows(t, db, name, sql)
		}
	}
}

// TestJoinEqualityIsCompare: the lookup join's = is Compare == 0, the = of
// the nested loop, of a scan filter and of the mediator's own join. The hash
// join it replaced keyed its table on String(), under which INT 1 and
// STRING "1.0" differ; pushing a join down could change its answer.
func TestJoinEqualityIsCompare(t *testing.T) {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{Relation: "a", Columns: []relstore.Column{{Name: "n", Type: relstore.TInt}}, Key: []int{0}})
	db.MustCreate(relstore.Schema{Relation: "b", Columns: []relstore.Column{{Name: "s", Type: relstore.TString}}, Key: []int{0}})
	db.MustInsert("a", relstore.Int(1))
	db.MustInsert("a", relstore.Int(2))
	db.MustInsert("b", relstore.Str("1.0"))
	db.MustInsert("b", relstore.Str("02"))
	db.MustInsert("b", relstore.Str("1"))
	outerA, outerB := []string{"1=1.0", "1=1", "2=02"}, []string{"1=1.0", "2=02", "1=1"}
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`SELECT n, s FROM a, b WHERE n = s`, outerA},             // a lookup: probes the numeric strings with an INT
		{`SELECT n, s FROM b, a WHERE n = s`, outerB},             // a lookup: probes the INTs with a string
		{`SELECT n, s FROM a, b WHERE n <= s AND n >= s`, outerA}, // the nested loop
	} {
		cur, _, err := sqlexec.ExecSQL(db, tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range drain(t, cur) {
			got = append(got, row[0].String()+"="+row[1].String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.sql, got, tc.want)
		}
		sameRows(t, db, "int against numeric string", tc.sql)
	}
}

// TestCursorKeepsItsMark: rows inserted after a query was planned never
// appear in it — not through the rows, not through a permutation that a
// later query extended before this one first used it — and do not disturb
// the order it was promised.
func TestCursorKeepsItsMark(t *testing.T) {
	for _, variant := range []string{"key order", "shuffled"} {
		for _, sql := range []string{browseSQL, `SELECT orid FROM orders WHERE cid = 'XYZ123'`} {
			db := variantDB(variant, 5)
			want := reference(t, db, sql)
			cur, _, err := sqlexec.ExecSQL(db, sql)
			if err != nil {
				t.Fatal(err)
			}
			// Below every key, matching every customer: visible at once if seen.
			for i, id := range []string{"XYZ123", "ABC000", "DEF345"} {
				db.MustInsert("orders", relstore.Str(fmt.Sprintf("0000%d", i)), relstore.Str(id), relstore.Int(1))
			}
			db.MustInsert("customer", relstore.Str("AAA000"), relstore.Str("Late"), relstore.Str("Nowhere"))
			if later := reference(t, db, sql); len(later) == len(want) {
				t.Fatalf("%s: the inserts do not show in %s; the test pins nothing", variant, sql)
			}
			sameRows(t, db, variant+" after the inserts", sql) // extends any permutation past the first cursor's mark
			if got := drain(t, cur); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s\nplanned before the inserts, drained after: %d rows %v\nwant the %d of its snapshot %v", variant, sql, len(got), got, len(want), want)
			}
		}
	}
}

// TestFirstRowDoesNotDependOnTableSize: the browse view's first row costs the
// same allocations over 300 customers as over 3 000 — nothing proportional to
// a table is built, buffered or sorted before it. (Planning included; the
// hash join and sort this replaced allocated ~14 000 times at 300 customers.)
func TestFirstRowDoesNotDependOnTableSize(t *testing.T) {
	firstRow := func(customers int) float64 {
		db := workload.ScaleDB("db1", customers, 5, 42)
		return testing.AllocsPerRun(20, func() {
			cur, _, err := sqlexec.ExecSQL(db, browseSQL)
			if err != nil {
				t.Fatal(err)
			}
			if row, ok := cur.Next(); !ok || row[0].S != "C000000" || row[3].S != "O00000000" {
				t.Fatalf("first row = %v, %v", row, ok)
			}
			cur.Close()
		})
	}
	small, large := firstRow(300), firstRow(3000)
	if small != large || small > 100 {
		t.Fatalf("first row of the browse view: %v allocations over 300 customers, %v over 3000; want equal and under 100", small, large)
	}
	// The tuples a navigation pulls are the tuples the source touches: k rows
	// in, the cursor has shipped k and stands at row k of 1 500.
	db := workload.ScaleDB("db1", 300, 5, 42)
	cur, _, _ := sqlexec.ExecSQL(db, browseSQL)
	defer cur.Close()
	for k := 0; k < 26; k++ {
		if row, ok := cur.Next(); !ok || row[3].S != fmt.Sprintf("O%08d", k) {
			t.Fatalf("row %d = %v", k, row)
		}
	}
	if got := db.Stats().TuplesShipped; got != 26 {
		t.Fatalf("26 rows pulled, %d shipped", got)
	}
}

// TestFig12FirstRowDoesNotDependOnTableSize: Fig12's first row costs the
// same allocations over 100 customers as over 1 000. c1 and o1 are an
// existence test probed per c2, and c2, o2 lead in the ORDER BY's order, so
// nothing sorts the whole four-way join before the first row; the sort that
// did copied every joined row.
func TestFig12FirstRowDoesNotDependOnTableSize(t *testing.T) {
	firstRow := func(customers int) float64 {
		db := workload.ScaleDB("db1", customers, 5, 42)
		return testing.AllocsPerRun(20, func() {
			cur, _, err := sqlexec.ExecSQL(db, fig12SQL)
			if err != nil {
				t.Fatal(err)
			}
			if row, ok := cur.Next(); !ok || row[0].S != "C000000" || row[3].S != "O00000000" {
				t.Fatalf("first row = %v, %v", row, ok)
			}
			cur.Close()
		})
	}
	if small, large := firstRow(100), firstRow(1000); small != large || small > 150 {
		t.Fatalf("Fig12's first row: %v allocations over 100 customers, %v over 1000; want equal and under 150", small, large)
	}
}
