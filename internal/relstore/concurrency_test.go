package relstore_test

import (
	"sync"
	"testing"

	"mix/internal/relstore"
	"mix/internal/sqlexec"
)

// TestConcurrentMutationAndReaders audits (under -race) that a DB stays
// coherent while writers insert and readers snapshot, query, and read the
// counters concurrently: Insert appends under the store lock and bumps the
// version, RowsSnapshot hands out stable slice headers, and Stats/Version/
// ResetStats are atomic cells. sqlexec scans run through RowsSnapshot, so a
// full query pipeline racing the writers is part of the audit.
func TestConcurrentMutationAndReaders(t *testing.T) {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "customer",
		Columns: []relstore.Column{
			{Name: "name", Type: relstore.TString},
			{Name: "age", Type: relstore.TInt},
		},
		Key: []int{0},
	})
	db.MustInsert("customer", relstore.Str("seed"), relstore.Int(1))

	const writers, readers, rounds = 2, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				db.MustInsert("customer", relstore.Str("w"), relstore.Int(int64(w*rounds+i)))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				v1 := db.Version()
				rows, ok := db.RowsSnapshot("customer")
				if !ok {
					t.Error("customer vanished")
					return
				}
				for _, row := range rows {
					_ = row[0]
				}
				if db.Version() < v1 {
					t.Error("version moved backwards")
					return
				}
				_ = db.Stats()
				if r == 0 && i%50 == 0 {
					db.ResetStats()
				}
				cur, _, err := sqlexec.ExecSQL(db, "SELECT C.name FROM customer C WHERE C.age < 10")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for {
					if _, ok := cur.Next(); !ok {
						break
					}
				}
				cur.Close()
			}
		}(r)
	}
	wg.Wait()

	rows, _ := db.RowsSnapshot("customer")
	if want := 1 + writers*rounds; len(rows) != want {
		t.Fatalf("rows = %d; want %d", len(rows), want)
	}
	// Version counted the create plus every insert.
	if want := int64(1 + 1 + writers*rounds); db.Version() != want {
		t.Fatalf("Version = %d; want %d", db.Version(), want)
	}
}

// TestLookupBesideWriter audits (under -race) the lazily built access path:
// a writer keeps appending rows whose looked-up column is out of order, so
// every reader that opens a scan extends the table's shared permutation,
// while readers holding earlier scans keep searching the one they resolved —
// or resolve theirs only after it has grown past their mark. Whatever the
// interleaving, a lookup returns exactly the matching rows below its scan's
// mark, in insertion order; and a join through sqlexec returns each of its
// scans' rows once.
func TestLookupBesideWriter(t *testing.T) {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "item",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "grp", Type: relstore.TString},
		},
		Key: []int{0},
	})
	const groups, rounds, readers = 7, 400, 4
	insert := func(i int) {
		db.MustInsert("item", relstore.Int(int64(i)), relstore.Str(string(rune('a'+(i*5)%groups))))
	}
	for i := 0; i < 10; i++ {
		insert(i)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 10; i < 10+rounds; i++ {
			insert(i)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held []*relstore.Lookup // lookups of earlier scans, some never used yet
			var marks []*relstore.Scan
			for i := 0; i < rounds/4; i++ {
				s, _ := db.Scan("item")
				l, ok := s.Lookup(1)
				if !ok {
					t.Error("text column lost its lookup")
					return
				}
				held, marks = append(held, l), append(marks, s)
				pick := (i*3 + r) % len(held)
				s, l = marks[pick], held[pick]
				probe := relstore.Str(string(rune('a' + i%groups)))
				var want []int64
				mark := 0
				for all := s.All(); ; mark++ {
					row, ok := all.Next(nil)
					if !ok {
						break
					}
					if relstore.Compare(row[1], probe) == 0 {
						want = append(want, row[0].I)
					}
				}
				m := l.Find(probe)
				for k := 0; ; k++ {
					row, ok := m.Next(nil)
					if !ok {
						if k != len(want) {
							t.Errorf("Find(%s) at mark %d: %d rows, want %d", probe.S, mark, k, len(want))
						}
						break
					}
					if k >= len(want) || row[0].I != want[k] {
						t.Errorf("Find(%s) at mark %d: row %d is id %d, want %v", probe.S, mark, k, row[0].I, want)
						break
					}
				}

				cur, _, err := sqlexec.ExecSQL(db, "SELECT a.id, b.id FROM item a, item b WHERE a.grp = b.grp AND a.id = b.id")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				n, last := 0, int64(-1)
				for {
					row, ok := cur.Next()
					if !ok {
						break
					}
					if row[0].I != row[1].I || row[0].I <= last {
						t.Errorf("self-join row %v after id %d", row, last)
					}
					last = row[0].I
					n++
				}
				cur.Close()
				if n < 10 || int64(n) != last+1 {
					t.Errorf("self-join returned %d rows ending at id %d", n, last)
				}
			}
		}(r)
	}
	wg.Wait()
}
