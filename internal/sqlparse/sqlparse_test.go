package sqlparse

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mix/internal/xtree"
)

func TestParseFigure22Query(t *testing.T) {
	sql := `SELECT c1.id, c1.name, c1.addr, o1.orid, o1.value
FROM customer c1, orders o1, customer c2, orders o2
WHERE c1.id = o1.cid AND c2.id = o2.cid
AND c1.id = c2.id AND o2.value > 20000
ORDER BY c1.id, o1.orid`
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Cols) != 5 || q.Cols[0].String() != "c1.id" {
		t.Fatalf("cols: %v", q.Cols)
	}
	if len(q.From) != 4 || q.From[2].Relation != "customer" || q.From[2].Alias != "c2" {
		t.Fatalf("from: %v", q.From)
	}
	if len(q.Where) != 4 {
		t.Fatalf("where: %v", q.Where)
	}
	last := q.Where[3]
	if last.Left.Col.String() != "o2.value" || last.Op != xtree.OpGT || last.Right.Lit != "20000" {
		t.Fatalf("last pred: %+v", last)
	}
	if len(q.OrderBy) != 2 || q.OrderBy[1].String() != "o1.orid" {
		t.Fatalf("order by: %v", q.OrderBy)
	}
}

func TestParseDistinct(t *testing.T) {
	q := MustParse(`SELECT DISTINCT id FROM customer`)
	if !q.Distinct {
		t.Fatal("DISTINCT not parsed")
	}
}

func TestParseLiterals(t *testing.T) {
	q := MustParse(`SELECT id FROM c WHERE name = 'O''Hara' AND v >= -2.5 AND w <> 'x'`)
	if q.Where[0].Right.Lit != "O'Hara" {
		t.Fatalf("escaped string: %q", q.Where[0].Right.Lit)
	}
	if q.Where[1].Right.Lit != "-2.5" || q.Where[1].Op != xtree.OpGE {
		t.Fatalf("numeric literal: %+v", q.Where[1])
	}
	if q.Where[2].Op != xtree.OpNE {
		t.Fatalf("<> operator: %+v", q.Where[2])
	}
}

func TestParseNoAlias(t *testing.T) {
	q := MustParse(`SELECT id, name FROM customer WHERE id = 'X'`)
	if q.From[0].Alias != "customer" {
		t.Fatalf("default alias: %+v", q.From[0])
	}
	if q.Cols[0].Qualifier != "" {
		t.Fatalf("unqualified column: %+v", q.Cols[0])
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q := MustParse(`select distinct id from customer where id = 'X' order by id`)
	if !q.Distinct || len(q.OrderBy) != 1 {
		t.Fatal("lower-case keywords")
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse(`SELECT id FROM c;`); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT`,
		`SELECT FROM c`,
		`SELECT id`,
		`SELECT id FROM`,
		`SELECT id FROM c WHERE`,
		`SELECT id FROM c WHERE id ~ 3`,
		`SELECT id FROM c WHERE id = 'unterminated`,
		`SELECT id FROM c ORDER id`,
		`SELECT id FROM c WHERE a = 1 trailing`,
		`INSERT INTO c VALUES (1)`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestErrorPosition(t *testing.T) {
	_, err := Parse(`SELECT id FROM c WHERE ???`)
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error lacks position: %v", err)
	}
}

// TestStringRoundTrip: String() output reparses identically for a corpus
// covering every clause combination.
func TestStringRoundTrip(t *testing.T) {
	corpus := []string{
		`SELECT id FROM customer`,
		`SELECT DISTINCT id, name FROM customer c1`,
		`SELECT c1.id FROM customer c1, orders o1 WHERE c1.id = o1.cid`,
		`SELECT c1.id FROM customer c1 WHERE c1.name = 'A B' AND c1.v > 3 ORDER BY c1.id`,
		`SELECT DISTINCT c2.id, c2.name FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`,
	}
	for _, src := range corpus {
		q1 := MustParse(src)
		printed := q1.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q: %v", printed, err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip drifted:\n%s\nvs\n%s", q1, q2)
		}
	}
}

// TestGeneratedRoundTripProperty: random queries in the subset survive a
// String/Parse round trip (testing/quick over a structured generator).
func TestGeneratedRoundTripProperty(t *testing.T) {
	rels := []string{"customer", "orders", "lens"}
	cols := []string{"id", "cid", "value", "name"}
	ops := []xtree.CmpOp{xtree.OpEQ, xtree.OpNE, xtree.OpLT, xtree.OpLE, xtree.OpGT, xtree.OpGE}

	f := func(seed uint32, nFrom, nCols, nWhere, nOrder uint8, distinct bool) bool {
		pick := func(k *uint32, n int) int {
			*k = *k*1664525 + 1013904223
			return int(*k>>16) % n
		}
		k := seed
		q := &Select{Distinct: distinct}
		from := int(nFrom%3) + 1
		for i := 0; i < from; i++ {
			rel := rels[pick(&k, len(rels))]
			q.From = append(q.From, TableRef{Relation: rel, Alias: fmt.Sprintf("t%d", i+1)})
		}
		ncols := int(nCols%4) + 1
		for i := 0; i < ncols; i++ {
			q.Cols = append(q.Cols, ColRef{
				Qualifier: q.From[pick(&k, from)].Alias,
				Column:    cols[pick(&k, len(cols))],
			})
		}
		for i := 0; i < int(nWhere%3); i++ {
			pred := Pred{
				Left: Expr{Col: ColRef{Qualifier: q.From[pick(&k, from)].Alias, Column: cols[pick(&k, len(cols))]}},
				Op:   ops[pick(&k, len(ops))],
			}
			if pick(&k, 2) == 0 {
				pred.Right = Expr{IsLit: true, Lit: fmt.Sprintf("%d", pick(&k, 100000))}
			} else {
				pred.Right = Expr{IsLit: true, Lit: "o'hara value"}
			}
			q.Where = append(q.Where, pred)
		}
		for i := 0; i < int(nOrder%3); i++ {
			q.OrderBy = append(q.OrderBy, ColRef{Qualifier: q.From[pick(&k, from)].Alias, Column: cols[pick(&k, len(cols))]})
		}
		printed := q.String()
		back, err := Parse(printed)
		if err != nil {
			t.Logf("unparsable: %s (%v)", printed, err)
			return false
		}
		return back.String() == printed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestLiteralsPrintAsParsed: a literal prints bare exactly when parseExpr
// reads the bare text back as the same literal. "." and ".5" printed bare
// read as a column reference, and the pushed SQL did not parse.
func TestLiteralsPrintAsParsed(t *testing.T) {
	for _, tc := range []struct {
		lit     string
		printed string
	}{
		{".", "'.'"},
		{".5", "'.5'"},
		{"-", "-"},
		{"-.", "-."},
		{"1.2.3", "1.2.3"},
		{"0.5", "0.5"},
		{"-12", "-12"},
		{"5-", "'5-'"},
		{"", "''"},
	} {
		if got := (Expr{IsLit: true, Lit: tc.lit}).String(); got != tc.printed {
			t.Errorf("literal %q prints as %s, want %s", tc.lit, got, tc.printed)
		}
		q := &Select{
			Cols:  []ColRef{{Column: "id"}},
			From:  []TableRef{{Relation: "customer", Alias: "customer"}},
			Where: []Pred{{Left: Expr{Col: ColRef{Column: "addr"}}, Op: xtree.OpEQ, Right: Expr{IsLit: true, Lit: tc.lit}}},
		}
		back, err := Parse(q.String())
		if err != nil {
			t.Errorf("literal %q: %s does not parse: %v", tc.lit, q, err)
			continue
		}
		if got := back.Where[0].Right; !got.IsLit || got.Lit != tc.lit {
			t.Errorf("literal %q: %s parses back as %+v", tc.lit, q, got)
		}
	}
}
