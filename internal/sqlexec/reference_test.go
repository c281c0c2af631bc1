package sqlexec_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mix/internal/relstore"
	"mix/internal/rewrite"
	"mix/internal/sqlexec"
	"mix/internal/sqlgen"
	"mix/internal/sqlparse"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xtree"
)

// reference evaluates sql the slow, obvious way — the oracle sqlexec.Exec is
// compared against. Nested loops over RowsSnapshot in FROM order, every
// predicate a Compare filter applied as soon as its columns are bound,
// sort.SliceStable for ORDER BY, project, distinct. It knows no access path,
// no join method and no order but the one it sorts into.
func reference(t *testing.T, db *relstore.DB, sql string) [][]relstore.Datum {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	type column struct {
		alias, name string
		typ         relstore.Type
	}
	var cols []column
	find := func(c sqlparse.ColRef) int {
		for i, x := range cols {
			if x.name == c.Column && (c.Qualifier == "" || c.Qualifier == x.alias) {
				return i
			}
		}
		return -1
	}
	value := func(e, other sqlparse.Expr, row []relstore.Datum) relstore.Datum {
		if !e.IsLit {
			return row[find(e.Col)]
		}
		if !other.IsLit {
			if d, err := relstore.ParseDatum(cols[find(other.Col)].typ, e.Lit); err == nil {
				return d
			}
		}
		return relstore.Str(e.Lit)
	}
	bound := func(e sqlparse.Expr) bool { return e.IsLit || find(e.Col) >= 0 }
	applied := make([]bool, len(q.Where))
	joined := [][]relstore.Datum{{}}
	for _, f := range q.From {
		tab, ok := db.Table(f.Relation)
		if !ok {
			t.Fatalf("reference: unknown relation %s", f.Relation)
		}
		for _, c := range tab.Schema.Columns {
			cols = append(cols, column{f.Alias, c.Name, c.Type})
		}
		rows, _ := db.RowsSnapshot(f.Relation)
		var next [][]relstore.Datum
		for _, l := range joined {
		candidates:
			for _, r := range rows {
				row := append(append([]relstore.Datum{}, l...), r...)
				for i, p := range q.Where {
					if applied[i] || !bound(p.Left) || !bound(p.Right) {
						continue
					}
					c := relstore.Compare(value(p.Left, p.Right, row), value(p.Right, p.Left, row))
					if !map[xtree.CmpOp]bool{xtree.OpEQ: c == 0, xtree.OpNE: c != 0, xtree.OpLT: c < 0,
						xtree.OpLE: c <= 0, xtree.OpGT: c > 0, xtree.OpGE: c >= 0}[p.Op] {
						continue candidates
					}
				}
				next = append(next, row)
			}
		}
		for i, p := range q.Where {
			applied[i] = applied[i] || bound(p.Left) && bound(p.Right)
		}
		joined = next
	}
	sort.SliceStable(joined, func(i, j int) bool {
		for _, c := range q.OrderBy {
			if cmp := relstore.Compare(joined[i][find(c)], joined[j][find(c)]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
	var out [][]relstore.Datum
	seen := map[string]bool{}
	for _, row := range joined {
		var proj []relstore.Datum
		var key strings.Builder
		for _, c := range q.Cols {
			proj = append(proj, row[find(c)])
			key.WriteString(row[find(c)].String() + "\x00")
		}
		if q.Distinct && seen[key.String()] {
			continue
		}
		seen[key.String()] = true
		out = append(out, proj)
	}
	return out
}

func drain(t *testing.T, cur relstore.Cursor) [][]relstore.Datum {
	t.Helper()
	defer cur.Close()
	var out [][]relstore.Datum
	for {
		row, ok := cur.Next()
		if !ok {
			return out
		}
		out = append(out, row)
	}
}

// sameRows fails unless Exec delivers the reference's rows, in its order.
func sameRows(t *testing.T, db *relstore.DB, what, sql string) {
	t.Helper()
	cur, _, err := sqlexec.ExecSQL(db, sql)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, sql, err)
	}
	got, want := drain(t, cur), reference(t, db, sql)
	if len(got) != len(want) {
		t.Fatalf("%s: %s\n%d rows, reference has %d", what, sql, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: %s\nrow %d = %v, reference has %v", what, sql, i, got[i], want[i])
		}
	}
}

// variantDB builds a database with the paper's schema and the constants the
// plan generator selects on, in one of the states the access paths must tell
// apart. The same rng seed gives the same rows.
func variantDB(variant string, seed int64) *relstore.DB {
	rng := rand.New(rand.NewSource(seed))
	ids := []string{"ABC000", "DEF345", "GHI999", "JKL001", "MNO002", "XYZ123", "XYZ124", "ZZZ999"}
	names := []string{"XYZInc.", "DEFCorp.", "Acme", "NoSuchInc."}
	addrs := []string{"LosAngeles", "NewYork", "Nowhere", "SanDiego"}
	values := []int64{7, 150, 2400, 30000, 200000, 499, 20001}
	orids := []string{"00000", "28904", "31416", "59265", "87456"}
	for i := 0; len(orids) < 30; i++ {
		orids = append(orids, fmt.Sprintf("%05d", 100+i*37))
	}
	sort.Strings(orids)
	switch variant {
	case "key order":
	case "shuffled":
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		rng.Shuffle(len(orids), func(i, j int) { orids[i], orids[j] = orids[j], orids[i] })
	case "duplicate keys":
		ids = append(ids[:4], append([]string{"GHI999", "XYZ123"}, ids[4:]...)...)
		orids = append(orids, "87456", "87456.0")
	case "mixed strings":
		// Compare is a total order on neither key any more.
		ids = append(ids, "9", "10", "10a", "nan")
		orids = append(orids, "9x", "O1")
	}
	db := workload.PaperDB()
	empty := relstore.NewDB(db.Name)
	for _, rel := range db.Relations() {
		tab, _ := db.Table(rel)
		empty.MustCreate(tab.Schema)
	}
	for _, id := range ids {
		empty.MustInsert("customer", relstore.Str(id), relstore.Str(names[rng.Intn(len(names))]), relstore.Str(addrs[rng.Intn(len(addrs))]))
	}
	for _, orid := range orids {
		empty.MustInsert("orders", relstore.Str(orid), relstore.Str(ids[rng.Intn(len(ids))]), relstore.Int(values[rng.Intn(len(values))]))
	}
	return empty
}

var variants = []string{"key order", "shuffled", "duplicate keys", "mixed strings"}

// relQueries collects the SQL of every relQuery in a pushed plan.
func relQueries(op xmas.Op, into *[]string) {
	if rq, ok := op.(*xmas.RelQuery); ok {
		*into = append(*into, rq.SQL)
	}
	ins, n := xmas.InputsOf(op)
	for _, in := range ins[:n] {
		relQueries(in, into)
	}
	if a, ok := op.(*xmas.Apply); ok {
		relQueries(a.Plan, into)
	}
}

// TestDifferentialCorpus runs every SQL string sqlgen.Push emits for the
// 150-plan generator corpus (the seed the frozen corpus answers use) and for
// the benchmark's queries through sqlexec.Exec and through the reference, on
// the paper's database and on each variant: same rows, same order.
func TestDifferentialCorpus(t *testing.T) {
	cat, paper := workload.PaperCatalog()
	dbs := map[string]*relstore.DB{"paper": paper}
	for _, v := range variants {
		dbs[v] = variantDB(v, 11)
	}
	rng := rand.New(rand.NewSource(20020208))
	seen := map[string]bool{}
	check := func(sql string) {
		if seen[sql] {
			return
		}
		seen[sql] = true
		for name, db := range dbs {
			sameRows(t, db, name, sql)
		}
	}
	for trial := 0; trial < 150; trial++ {
		plan := workload.RandomPlan(rng)
		if xmas.Verify(plan) != nil {
			continue
		}
		opt, _, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		pushed, err := sqlgen.Push(opt, cat)
		if err != nil {
			t.Fatalf("trial %d: push: %v", trial, err)
		}
		var sqls []string
		relQueries(pushed, &sqls)
		for _, sql := range sqls {
			check(sql)
		}
	}
	if len(seen) < 40 {
		t.Fatalf("the corpus pushed only %d distinct queries; generator skew?", len(seen))
	}
	// What bench/ sends: the browse view, its in-place query, Fig12.
	check(`SELECT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1 WHERE c1.id = o1.cid ORDER BY c1.id, o1.orid`)
	check(`SELECT DISTINCT c1.id, c1.name, c1.addr, o1.orid, o1.cid, o1.value FROM customer c1, orders o1, customer c2, orders o2 WHERE c1.id = 'XYZ123' AND o1.value < 30000 AND c1.id = o1.cid AND c2.id = 'XYZ123' AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c1.id, o1.orid`)
	check(`SELECT DISTINCT c2.id, c2.name, c2.addr, o2.orid, o2.cid, o2.value FROM customer c1, orders o1, customer c2, orders o2 WHERE o1.value > 20000 AND c1.id = o1.cid AND c2.id = o2.cid AND c1.id = c2.id ORDER BY c2.id, o2.orid`)
}
