package sqlexec

import (
	"strings"
	"testing"

	"mix/internal/relstore"
	"mix/internal/sqlparse"
)

// shape plans sql and names what the planner chose: per FROM entry "lookup"
// or "scan", then "sort" if a blocking sort remains.
func shape(t *testing.T, db *relstore.DB, sql string) string {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan(db, q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var parts []string
	for it := pl.it; it != nil; {
		switch x := it.(type) {
		case *distinctIter:
			it = x.in
		case *projectIter:
			it = x.in
		case *sortIter:
			parts = append([]string{"sort"}, parts...)
			it = x.in
		case *joinIter:
			if x.lookup != nil {
				parts = append([]string{"lookup"}, parts...)
			} else {
				parts = append([]string{"scan"}, parts...)
			}
			it = x.left
		}
	}
	return strings.Join(parts, " ")
}

// TestPlansUseTheAccessPaths pins what the planner makes of the benchmark's
// queries on a database inserted in key order (testDB is one: C1..C3, O1..O4,
// and orders.cid ascends too), and what it falls back to where the data does
// not allow it. That every such plan returns the right rows in the right
// order is the differential test's business (reference_test.go).
func TestPlansUseTheAccessPaths(t *testing.T) {
	const (
		browse  = `SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid`
		inplace = `SELECT DISTINCT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1, customer c2, orders o2 WHERE c1.id = 'C1' AND o1.value < 500 AND c1.id = o1.cid AND c2.id = 'C1' AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c1.id, o1.orid`
		fig12   = `SELECT DISTINCT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`
	)
	customer := func(ids ...string) func(*relstore.DB) {
		return func(db *relstore.DB) {
			for _, id := range ids {
				db.MustInsert("customer", relstore.Str(id), relstore.Str("Late"), relstore.Str("LA"))
			}
		}
	}
	for _, tc := range []struct {
		name, sql, want string
		then            func(*relstore.DB) // inserts after testDB's
	}{
		// customer.id and orders.orid ascend strictly: position order is the
		// ORDER BY order, and each customer's orders are one binary search.
		{"browse", browse, "scan lookup", nil},
		{"in-place", inplace, "lookup lookup lookup lookup", nil},
		// Two orders over 20000 deliver their customer's orders twice, so
		// (c2.id, o2.orid) is not the pipeline's order: the sort stays.
		{"Fig12", fig12, "scan lookup lookup lookup sort", nil},
		{"single table in key order", `SELECT id FROM customer ORDER BY id`, "scan", nil},
		{"point filter", `SELECT orid FROM orders WHERE cid = 'C1' AND value > 5 ORDER BY orid`, "lookup", nil},
		{"literal on the left", `SELECT orid FROM orders WHERE 'C1' = cid`, "lookup", nil},
		{"ORDER BY a column that is no key", `SELECT orid FROM orders ORDER BY cid`, "scan sort", nil},
		{"ORDER BY keys against FROM order", `SELECT c.id FROM customer c, orders o WHERE c.id = o.cid ORDER BY o.orid, c.id`, "scan lookup sort", nil},
		{"ORDER BY skipping the first key", `SELECT c.id FROM customer c, orders o WHERE c.id = o.cid ORDER BY o.orid`, "scan lookup sort", nil},
		{"join that is no equality", `SELECT c.id FROM customer c, orders o WHERE c.id < o.cid ORDER BY c.id`, "scan scan", nil},
		{"equality within one table", `SELECT orid FROM orders WHERE orid = cid`, "scan", nil},
		// Not in key order: the lookup goes through the permutation, and the
		// key order has to be sorted into.
		{"not in key order", `SELECT c.id FROM orders o, customer c WHERE c.id = o.cid ORDER BY o.orid, c.id`, "scan lookup sort", customer("C0")},
		// relstore does not enforce key uniqueness, and a repeated key would
		// put ties into the ORDER BY that position order does not break the
		// way the sort does. The flag is *strictly* ascending.
		{"duplicate key", browse, "scan lookup sort", customer("C3")},
		// "10" < "10a" < "9" < "10": no order to search customer.id by and
		// none to call it ascending in. The join onto it is the nested loop,
		// the point filter a scan, and the sort stays.
		{"mixed strings", `SELECT c.id FROM orders o, customer c WHERE c.id = o.cid ORDER BY o.orid`, "scan scan", customer("9", "10a")},
		{"mixed strings, key order", browse, "scan lookup sort", customer("9", "10a")},
		{"mixed strings, point filter", `SELECT name FROM customer WHERE id = '9'`, "scan", customer("9", "10a")},
		{"a NaN", `SELECT name FROM customer WHERE id = '9'`, "scan", customer("nan")},
	} {
		db := testDB()
		if tc.then != nil {
			tc.then(db)
		}
		if got := shape(t, db, tc.sql); got != tc.want {
			t.Errorf("%s: planned %q, want %q\n%s", tc.name, got, tc.want, tc.sql)
		}
	}
}
