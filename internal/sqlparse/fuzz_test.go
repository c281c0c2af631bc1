package sqlparse

import "testing"

// FuzzSQLParse: Parse answers any text with a query or an error, never a
// panic, and a query it accepts prints as SQL that parses back to the query
// that prints the same. The mediator pushes the printed form to its sources,
// so a literal that prints as something else fails a user's query.
// testdata/fuzz/FuzzSQLParse holds the inputs that once broke it, replayed by
// plain `go test`.
func FuzzSQLParse(f *testing.F) {
	for _, sql := range []string{
		`SELECT id FROM customer`,
		`SELECT DISTINCT c2.id, c2.name FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`,
		`SELECT c1.id FROM customer c1 WHERE c1.name = 'O''Hara' AND -3 <= c1.v AND c1.w <> 2.5 ORDER BY c1.id;`,
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("Parse(%q) prints as %q, which parses back to %q", src, printed, again)
		}
	})
}
