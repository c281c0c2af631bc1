package xquery

import (
	"errors"
	"testing"

	"mix/internal/workload"
)

// FuzzParse: query text arrives over the wire (Client.Query/QueryFrom), so
// Parse must answer any byte string with a query or a *ParseError — never a
// panic, which would take the serving process down. Seeds are the paper's
// Q1 view, the in-place queries of Example 2.1 and the Figure 12 query;
// testdata/fuzz/FuzzParse holds the inputs that once crashed it, replayed by
// plain `go test`.
func FuzzParse(f *testing.F) {
	for _, q := range []string{workload.Q1, workload.Q2, workload.Q3, workload.Fig12} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Parse(src)
		var perr *ParseError
		if err != nil && !errors.As(err, &perr) {
			t.Fatalf("Parse(%q) = %v (%T), want a *ParseError", src, err, err)
		}
	})
}
