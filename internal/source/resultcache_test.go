package source

import (
	"testing"

	"mix/internal/relstore"
)

func cacheTestDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "customer",
		Columns: []relstore.Column{
			{Name: "name", Type: relstore.TString},
			{Name: "age", Type: relstore.TInt},
		},
		Key: []int{0},
	})
	db.MustInsert("customer", relstore.Str("Ann"), relstore.Int(30))
	db.MustInsert("customer", relstore.Str("Bob"), relstore.Int(40))
	return db
}

func drain(t *testing.T, cur relstore.Cursor) [][]relstore.Datum {
	t.Helper()
	var rows [][]relstore.Datum
	for {
		row, ok := cur.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	cur.Close()
	return rows
}

func TestResultCacheHitSkipsSource(t *testing.T) {
	db := cacheTestDB(t)
	rc := NewResultCache(8)
	const q = "SELECT C.name FROM customer C"

	cur, err := rc.open(db, q)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, cur)
	if len(first) != 2 {
		t.Fatalf("first scan: %d rows; want 2", len(first))
	}
	before := db.Stats()

	cur, err = rc.open(db, q)
	if err != nil {
		t.Fatal(err)
	}
	second := drain(t, cur)
	if len(second) != 2 {
		t.Fatalf("cached scan: %d rows; want 2", len(second))
	}
	after := db.Stats()
	if after.QueriesReceived != before.QueriesReceived || after.TuplesShipped != before.TuplesShipped {
		t.Fatalf("cache hit touched the source: %+v -> %+v", before, after)
	}
	if st := rc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("Hits/Misses = %d/%d; want 1/1", st.Hits, st.Misses)
	}
}

func TestResultCacheNormalizesSQLVariants(t *testing.T) {
	db := cacheTestDB(t)
	rc := NewResultCache(8)
	drain(t, mustOpen(t, rc, db, "SELECT C.name FROM customer C"))
	drain(t, mustOpen(t, rc, db, "select C.name from customer C"))
	if st := rc.Stats(); st.Hits != 1 {
		t.Fatalf("textual variant missed: %+v", st)
	}
}

func TestResultCacheVersionedInvalidation(t *testing.T) {
	db := cacheTestDB(t)
	rc := NewResultCache(8)
	const q = "SELECT C.name FROM customer C"
	drain(t, mustOpen(t, rc, db, q))

	db.MustInsert("customer", relstore.Str("Cid"), relstore.Int(50))

	rows := drain(t, mustOpen(t, rc, db, q))
	if len(rows) != 3 {
		t.Fatalf("post-mutation scan served stale data: %d rows; want 3", len(rows))
	}
	if st := rc.Stats(); st.Hits != 0 {
		t.Fatalf("mutation did not invalidate: %+v", st)
	}
	// The result of the old version can never be asked for again; it must not
	// stay resident until the LRU happens to push it out.
	if st := rc.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("after the mutation the cache holds %d entries (%d evictions); want only the fresh result", st.Entries, st.Evictions)
	}
	// The fresh result is cached under the new version.
	rows = drain(t, mustOpen(t, rc, db, q))
	if len(rows) != 3 {
		t.Fatalf("re-scan after mutation: %d rows; want 3", len(rows))
	}
	if st := rc.Stats(); st.Hits != 1 {
		t.Fatalf("fresh result not cached: %+v", st)
	}
}

// TestResultCacheFillRacingAMutation: a scan that opened before a mutation
// and finishes after the fresh result was cached must not replace it — its
// rows land under the version it observed at open time.
func TestResultCacheFillRacingAMutation(t *testing.T) {
	db := cacheTestDB(t)
	rc := NewResultCache(8)
	const q = "SELECT C.name FROM customer C"
	slow := mustOpen(t, rc, db, q)

	db.MustInsert("customer", relstore.Str("Cid"), relstore.Int(50))
	drain(t, mustOpen(t, rc, db, q))
	if rows := drain(t, slow); len(rows) != 2 {
		t.Fatalf("scan opened before the mutation saw %d rows; want 2", len(rows))
	}

	if rows := drain(t, mustOpen(t, rc, db, q)); len(rows) != 3 {
		t.Fatalf("scan after the mutation served %d rows; want 3", len(rows))
	}
}

func TestResultCachePartialScanCachesNothing(t *testing.T) {
	db := cacheTestDB(t)
	rc := NewResultCache(8)
	const q = "SELECT C.name FROM customer C"

	cur := mustOpen(t, rc, db, q)
	if _, ok := cur.Next(); !ok {
		t.Fatal("no first row")
	}
	cur.Close() // abandoned mid-scan: a prefix is not the result

	drain(t, mustOpen(t, rc, db, q))
	if st := rc.Stats(); st.Hits != 0 {
		t.Fatalf("partial scan populated the cache: %+v", st)
	}
}

func TestCatalogExecRelRouting(t *testing.T) {
	db := cacheTestDB(t)
	cat := NewCatalog()
	cat.AddRelDB(db)
	const q = "SELECT C.name FROM customer C"

	// Disabled: every exec ships to the source.
	for i := 0; i < 2; i++ {
		cur, err := cat.ExecRel(db, q)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, cur)
	}
	if got := db.Stats().QueriesReceived; got != 2 {
		t.Fatalf("uncached ExecRel: %d queries; want 2", got)
	}
	if st := cat.ResultCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted: %+v", st)
	}

	cat.EnableResultCache(8)
	for i := 0; i < 3; i++ {
		cur, err := cat.ExecRel(db, q)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, cur)
	}
	if got := db.Stats().QueriesReceived; got != 3 {
		t.Fatalf("cached ExecRel shipped every scan: %d queries; want 3", got)
	}
	if st := cat.ResultCacheStats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("cached ExecRel stats: %+v", st)
	}
}

func TestCatalogVersions(t *testing.T) {
	db := cacheTestDB(t)
	cat := NewCatalog()
	sv0, dv0 := cat.StructVersion(), cat.DataVersion()
	cat.AddRelDB(db)
	if cat.StructVersion() == sv0 {
		t.Fatal("registration did not move StructVersion")
	}
	if cat.DataVersion() == dv0 {
		t.Fatal("registration did not move DataVersion")
	}
	sv1, dv1 := cat.StructVersion(), cat.DataVersion()
	db.MustInsert("customer", relstore.Str("Cid"), relstore.Int(50))
	if cat.StructVersion() != sv1 {
		t.Fatal("row mutation moved StructVersion (plans would invalidate needlessly)")
	}
	if cat.DataVersion() == dv1 {
		t.Fatal("row mutation did not move DataVersion")
	}
}

func mustOpen(t *testing.T, rc *ResultCache, db *relstore.DB, sql string) relstore.Cursor {
	t.Helper()
	cur, err := rc.open(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	return cur
}
