package engine

import (
	"reflect"
	"testing"

	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/sqlexec"
	"mix/internal/wrapper"
	"mix/internal/xmas"
)

// TestScanCacheAnswersLikeSQLExec: under CostOpt, with the result cache on
// and the wrapper's full scan already cached, an rQ is answered from the
// cached scan — no query reaches the store and no tuple is shipped — and
// its rows are sqlexec's, in order, for int, float and string columns
// compared with well-typed, mistyped and string literals.
func TestScanCacheAnswersLikeSQLExec(t *testing.T) {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "m",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "x", Type: relstore.TFloat},
			{Name: "s", Type: relstore.TString},
		},
		Key: []int{0},
	})
	for _, r := range []struct {
		id int64
		x  float64
		s  string
	}{{4, 2.5, "b"}, {1, -1, "10"}, {3, 2, "abc"}, {2, 0.5, "9"}, {5, 1e3, "B"}} {
		db.MustInsert("m", relstore.Int(r.id), relstore.Float(r.x), relstore.Str(r.s))
	}
	cat := source.NewCatalog()
	cat.AddRelDB(db)
	cat.EnableResultCache(64)

	doc, err := cat.Resolve(wrapper.RootID("db1", "m"))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := doc.Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok, err := scan.Next(); err != nil {
			t.Fatal(err)
		} else if !ok {
			break
		}
	}
	scan.Close()

	for _, where := range []string{
		// int column
		"m.id = 3", "m.id >= 2", "3 > m.id", "m.id < 2.5", "m.id <> '4'", "m.id < 'abc'",
		// float column
		"m.x > 1", "m.x = 2", "m.x <= 0.5", "m.x < 'b'", "m.x > '-'",
		// string column
		"m.s = 'b'", "m.s < 'b'", "m.s > 2", "m.s <= 9", "m.s <> 'abc'",
		// columns and literals together
		"m.id > m.x", "m.s = m.id", "'2' = 2",
	} {
		sql := "SELECT m.id, m.x, m.s FROM m WHERE " + where + " ORDER BY m.id"
		op := &xmas.RelQuery{Server: "db1", SQL: sql, Maps: []xmas.VarMap{{
			V: "$R", ElemLabel: "m",
			Cols:    []xmas.ColSpec{{Pos: 0, Label: "id"}, {Pos: 1, Label: "x"}, {Pos: 2, Label: "s"}},
			KeyCols: []int{0},
		}}}
		c, err := compile(op, cat)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewCtx(cat)
		ctx.opts.CostOpt = true
		before := db.Stats()
		tuples, err := drain(c(ctx))
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if after := db.Stats(); after.QueriesReceived != before.QueriesReceived || after.TuplesShipped != before.TuplesShipped {
			t.Fatalf("%s: reached the store (%+v -> %+v); want the cached scan", where, before, after)
		}
		var got [][]relstore.Datum
		for _, tup := range tuples {
			got = append(got, tup.MustGet("$R").(*rowRef).row.vals)
		}

		cur, _, err := sqlexec.ExecSQL(db, sql)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]relstore.Datum
		for {
			row, ok := cur.Next()
			if !ok {
				break
			}
			want = append(want, row)
		}
		cur.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached scan answered %v; sqlexec %v", where, got, want)
		}
	}
}
