package sqlexec

import (
	"fmt"
	"strings"

	"mix/internal/relstore"
	"mix/internal/sqlparse"
)

// TestDB is the small key-ordered fixture of the in-package tests.
var TestDB = testDB

// Shape plans sql and names what the planner chose: per entry joined in
// "lookup" or "scan", a semi-join as "semi(...)" around its own entries,
// then "sort" if a blocking sort remains, then "distinct" for a DISTINCT
// that remembers every row it passed or "adjacent" for one that compares a
// row with the one before it.
func Shape(db *relstore.DB, sql string) (string, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	pl, err := plan(db, q)
	if err != nil {
		return "", err
	}
	return strings.Join(shape(pl.it), " "), nil
}

func shape(it iter) []string {
	var parts []string
	for it != nil {
		switch x := it.(type) {
		case *distinctIter:
			if x.seen != nil {
				parts = append(parts, "distinct")
			} else {
				parts = append(parts, "adjacent")
			}
			it = x.in
		case *projectIter:
			it = x.in
		case *sortIter:
			parts = append([]string{"sort"}, parts...)
			it = x.in
		case *semiIter:
			parts = append([]string{"semi(" + strings.Join(shape(x.sub), " ") + ")"}, parts...)
			it = x.left
		case *joinIter:
			if x.lookup != nil {
				parts = append([]string{"lookup"}, parts...)
			} else {
				parts = append([]string{"scan"}, parts...)
			}
			it = x.left
		case *rowIter:
			it = nil
		default:
			panic(fmt.Sprintf("Shape: %T", it))
		}
	}
	return parts
}
