package sqlexec_test

import (
	"testing"

	"mix/internal/relstore"
	"mix/internal/sqlexec"
)

// The Fig12 query and the variants of it where the existence rule must not
// fire: without DISTINCT, and with an entry it would make a semi-join named
// in the ORDER BY. Both keep Fig12's first FROM entries and must keep its
// order of rows that tie.
const (
	fig12AllSQL     = `SELECT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`
	fig12ByOrderSQL = `SELECT DISTINCT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY o1.orid, c2.id, o2.orid`
	// A DISTINCT whose ORDER BY fixes the row against FROM order: the
	// entries swap, and the sort goes.
	keysAgainstFromSQL = `SELECT DISTINCT c.id, o.orid FROM orders o, customer c WHERE c.id = o.cid ORDER BY c.id, o.orid`
	// One existence entry among the joined ones, one that depends on no
	// joined entry, and an ORDER BY that does not fix the row.
	existsMidSQL   = `SELECT DISTINCT c.name FROM customer c, orders o WHERE c.id = o.cid AND o.value > 1000 ORDER BY c.name`
	existsAloneSQL = `SELECT DISTINCT c.id FROM orders o, customer c WHERE o.value > 2000 ORDER BY c.id`
	// Three existence entries joined into one group by a triangle of
	// predicates, the second of which merges a group into a later member's:
	// probed from c, each in turn by one probed before it.
	existsTriangleSQL = `SELECT DISTINCT c.id FROM orders a, customer b, orders d, customer c WHERE a.cid = d.cid AND b.id = d.cid AND a.cid = b.id AND c.id = a.cid ORDER BY c.id`
)

// TestPlansUseTheAccessPaths pins what the planner makes of the benchmark's
// queries on a database inserted in key order (TestDB is one: C1..C3, O1..O4,
// and orders.cid ascends too), and what it falls back to where the data does
// not allow it. That every such plan returns the right rows in the right
// order is the differential test's business (reference_test.go).
func TestPlansUseTheAccessPaths(t *testing.T) {
	customer := func(ids ...string) func(*relstore.DB) {
		return func(db *relstore.DB) {
			for _, id := range ids {
				db.MustInsert("customer", relstore.Str(id), relstore.Str("Late"), relstore.Str("LA"))
			}
		}
	}
	const browse = `SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid`
	const inplace = `SELECT DISTINCT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1, customer c2, orders o2 WHERE c1.id = 'C1' AND o1.value < 500 AND c1.id = o1.cid AND c2.id = 'C1' AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c1.id, o1.orid`
	for _, tc := range []struct {
		name, sql, want string
		then            func(*relstore.DB) // inserts after TestDB's
	}{
		// customer.id and orders.orid ascend strictly: position order is the
		// ORDER BY order, and each customer's orders are one binary search.
		{"browse", browse, "scan lookup", nil},
		// c2, o2 are selected nowhere: one existence check per c1. The
		// ORDER BY names the key of both selected entries, so the rows come
		// sorted with no ties, and equal rows would come next to each other.
		{"in-place", inplace, "lookup semi(lookup lookup) lookup adjacent", nil},
		// c1, o1 become "this c2 has an order over 20000", probed once per
		// c2; c2, o2 lead, in the ORDER BY's order, so no sort.
		{"Fig12", fig12SQL, "scan semi(lookup lookup) lookup adjacent", nil},
		// Without DISTINCT every joined row is an output row: a customer with
		// two orders over 20000 delivers its orders twice, in FROM order.
		{"Fig12 without DISTINCT", fig12AllSQL, "scan lookup lookup lookup sort", nil},
		// o1 is ordered by, so only c1 could be an existence test, and probed
		// after c2 it would cost c2 its lookup: FROM order, as before.
		{"Fig12 ordered by an unselected entry", fig12ByOrderSQL, "scan lookup lookup lookup sort distinct", nil},
		{"ORDER BY keys against FROM order, DISTINCT", keysAgainstFromSQL, "scan lookup adjacent", nil},
		// The ORDER BY does not fix the row (names are no key), so FROM
		// order stays; o comes after c, so it can still be a semi-join.
		{"existence after the joined entries", existsMidSQL, "scan semi(lookup) sort distinct", nil},
		// An existence test that depends on nothing is probed once, first.
		{"existence of anything", existsAloneSQL, "semi(scan) scan adjacent", nil},
		{"a triangle of existence entries", existsTriangleSQL, "scan semi(lookup lookup lookup) adjacent", nil},
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
		// A repeated key fixes no row: Fig12 keeps FROM order, its sort and
		// its map; the in-place query's existence entries come last anyway.
		{"Fig12, duplicate key", fig12SQL, "scan lookup lookup lookup sort distinct", customer("C3")},
		{"in-place, duplicate key", inplace, "lookup semi(lookup lookup) lookup sort distinct", customer("C3")},
		// "10" < "10a" < "9" < "10": no order to search customer.id by and
		// none to call it ascending in. The join onto it is the nested loop,
		// the point filter a scan, and the sort stays.
		{"mixed strings", `SELECT c.id FROM orders o, customer c WHERE c.id = o.cid ORDER BY o.orid`, "scan scan", customer("9", "10a")},
		{"mixed strings, key order", browse, "scan lookup sort", customer("9", "10a")},
		{"mixed strings, point filter", `SELECT name FROM customer WHERE id = '9'`, "scan", customer("9", "10a")},
		{"a NaN", `SELECT name FROM customer WHERE id = '9'`, "scan", customer("nan")},
	} {
		db := sqlexec.TestDB()
		if tc.then != nil {
			tc.then(db)
		}
		checkShape(t, db, tc.name, tc.sql, tc.want)
	}
}

// TestPlansKeepTheSortWhereTiesShow: on the variant databases whose keys
// do not ascend, the new rules leave Fig12 as it was — FROM order, the sort
// and the map — because the ORDER BY no longer fixes the row.
func TestPlansKeepTheSortWhereTiesShow(t *testing.T) {
	for _, tc := range []struct{ variant, sql, want string }{
		{"key order", fig12SQL, "scan semi(lookup lookup) lookup adjacent"},
		{"duplicate keys", fig12SQL, "scan lookup lookup lookup sort distinct"},
		{"shuffled", fig12SQL, "scan lookup lookup lookup sort distinct"},
		{"shuffled", keysAgainstFromSQL, "scan lookup sort distinct"},
		{"duplicate keys", keysAgainstFromSQL, "scan lookup sort distinct"},
	} {
		checkShape(t, variantDB(tc.variant, 3), tc.variant, tc.sql, tc.want)
	}
}

func checkShape(t *testing.T, db *relstore.DB, name, sql, want string) {
	t.Helper()
	got, err := sqlexec.Shape(db, sql)
	if err != nil {
		t.Fatalf("%s: %s: %v", name, sql, err)
	}
	if got != want {
		t.Errorf("%s: planned %q, want %q\n%s", name, got, want, sql)
	}
}
