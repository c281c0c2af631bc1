package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// kv is a two-column relation: a key and one more column to look up.
func kvDB(keyType, valType Type) *DB {
	db := NewDB("test")
	db.MustCreate(Schema{
		Relation: "kv",
		Columns:  []Column{{Name: "k", Type: keyType}, {Name: "v", Type: valType}},
		Key:      []int{0},
	})
	return db
}

func mustScan(t *testing.T, db *DB) *Scan {
	t.Helper()
	s, ok := db.Scan("kv")
	if !ok {
		t.Fatal("relation kv not found")
	}
	return s
}

// keysOf drains a run into the rows' first column.
func keysOf(m Matches) []string {
	var out []string
	var row []Datum
	for {
		var ok bool
		row, ok = m.Next(row[:0])
		if !ok {
			return out
		}
		out = append(out, row[0].String())
	}
}

// scanFor is what Find must equal: the rows with Compare == 0, in insertion
// order.
func scanFor(rows [][]Datum, col int, probe Datum) []string {
	var out []string
	for _, row := range rows {
		if Compare(row[col], probe) == 0 {
			out = append(out, row[0].String())
		}
	}
	return out
}

func TestCompareTextDoesNotAllocate(t *testing.T) {
	a, b := Str("C000001"), Str("C000002")
	if n := testing.AllocsPerRun(100, func() { Compare(a, b) }); n != 0 {
		t.Fatalf("Compare(%q, %q) allocates %v times, want 0", a.S, b.S, n)
	}
}

// TestCompareIsNotTotalOnMixedStrings pins the two ways Compare fails to be
// an order on a string column — the reason such a column offers no access
// path and its table no ascending key.
func TestCompareIsNotTotalOnMixedStrings(t *testing.T) {
	// Numbers compare numerically with each other, lexicographically with the
	// rest: a cycle.
	cycle := []Datum{Str("10"), Str("10a"), Str("9"), Str("10")}
	for i := 0; i+1 < len(cycle); i++ {
		if Compare(cycle[i], cycle[i+1]) >= 0 {
			t.Fatalf("Compare(%q, %q) = %d, want < 0", cycle[i].S, cycle[i+1].S, Compare(cycle[i], cycle[i+1]))
		}
	}
	// A NaN equals every number, so equality is not transitive.
	for _, d := range []Datum{Str("1"), Int(2), Float(math.Inf(1))} {
		if Compare(Str("NaN"), d) != 0 || Compare(d, Float(math.NaN())) != 0 {
			t.Fatalf("NaN does not compare equal to %v", d)
		}
	}

	for _, tc := range []struct {
		name string
		vals []Datum
	}{
		{"mixed", []Datum{Str("9"), Str("10a")}},
		{"nan", []Datum{Str("1"), Str("nan")}},
	} {
		db := kvDB(TString, TString)
		for i, v := range tc.vals {
			db.MustInsert("kv", v, Str(fmt.Sprint("x", i)))
		}
		s := mustScan(t, db)
		if _, ok := s.Lookup(0); ok {
			t.Errorf("%s: column k offers a lookup although Compare is not total on it", tc.name)
		}
		if s.KeyAscending() {
			t.Errorf("%s: key counts as ascending although Compare is not total on it", tc.name)
		}
		if _, ok := s.Lookup(1); !ok {
			t.Errorf("%s: column v is plain text and must keep its lookup", tc.name)
		}
	}

	// A float column is total until it holds a NaN.
	db := kvDB(TFloat, TString)
	db.MustInsert("kv", Float(1), Str("a"))
	if s := mustScan(t, db); !s.KeyAscending() {
		t.Error("float key 1 is not ascending")
	}
	db.MustInsert("kv", Float(math.NaN()), Str("b"))
	if s := mustScan(t, db); s.KeyAscending() {
		t.Error("float key with a NaN counts as ascending")
	} else if _, ok := s.Lookup(0); ok {
		t.Error("float column with a NaN offers a lookup")
	}
}

func TestKeyAscendingIsStrict(t *testing.T) {
	db := kvDB(TString, TInt)
	if s := mustScan(t, db); !s.KeyAscending() {
		t.Error("empty table: key not ascending")
	}
	db.MustInsert("kv", Str("a"), Int(1))
	db.MustInsert("kv", Str("b"), Int(1))
	before := mustScan(t, db)
	if !before.KeyAscending() {
		t.Error("a, b: key not ascending")
	}
	// The store does not enforce key uniqueness; a duplicate is not a step up.
	db.MustInsert("kv", Str("b"), Int(2))
	if mustScan(t, db).KeyAscending() {
		t.Error("a, b, b: duplicate key counts as strictly ascending")
	}
	if !before.KeyAscending() {
		t.Error("a scan opened before the duplicate must keep its flag: it does not see that row")
	}

	// A number key ascends numerically: 2 then 10 is a step up.
	db = kvDB(TInt, TString)
	db.MustInsert("kv", Int(2), Str("a"))
	db.MustInsert("kv", Int(10), Str("b"))
	if !mustScan(t, db).KeyAscending() {
		t.Error("2, 10: key not ascending")
	}
	db.MustInsert("kv", Int(9), Str("c"))
	if mustScan(t, db).KeyAscending() {
		t.Error("2, 10, 9: key counts as ascending")
	}

	// "1" and "1.0" are equal numbers to Compare, hence duplicates.
	db = kvDB(TString, TInt)
	db.MustInsert("kv", Str("1"), Int(1))
	db.MustInsert("kv", Str("1.0"), Int(2))
	if mustScan(t, db).KeyAscending() {
		t.Error(`"1", "1.0": equal under Compare, yet counted as strictly ascending`)
	}

	// A composite key ascends lexicographically.
	db = NewDB("test")
	db.MustCreate(Schema{Relation: "kv", Columns: []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TInt}}, Key: []int{0, 1}})
	db.MustInsert("kv", Int(1), Int(5))
	db.MustInsert("kv", Int(1), Int(7))
	db.MustInsert("kv", Int(2), Int(0))
	if !mustScan(t, db).KeyAscending() {
		t.Error("(1,5) (1,7) (2,0) is strictly ascending")
	}
	db.MustInsert("kv", Int(2), Int(0))
	if mustScan(t, db).KeyAscending() {
		t.Error("repeated composite key counts as strictly ascending")
	}

	// No key, no key order.
	db = NewDB("test")
	db.MustCreate(Schema{Relation: "kv", Columns: []Column{{Name: "a", Type: TInt}}})
	if mustScan(t, db).KeyAscending() {
		t.Error("a relation without a key has an ascending key")
	}
}

// TestLookupEqualsScan compares Find with a filter scan on both kinds of
// path — rows ascending on the column (searched in place) and rows in random
// order (searched through the permutation) — for every column class and
// probe kind, including the probes whose = is not what their text suggests.
func TestLookupEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probes := []Datum{Int(3), Int(-1), Float(3), Float(2.5), Float(math.NaN()), Float(math.Inf(1)),
		Str("3"), Str("3.0"), Str("03"), Str("nan"), Str("x3"), Str("x03"), Str(""), Str("zz"), Int(99), Str("x10")}
	for _, tc := range []struct {
		name string
		typ  Type
		gen  func(i int) Datum
	}{
		{"int", TInt, func(i int) Datum { return Int(int64(i / 3)) }},
		{"float", TFloat, func(i int) Datum { return Float(float64(i/3) / 2) }},
		{"numeric text", TString, func(i int) Datum { return Str(fmt.Sprintf("%d.0", i/3)) }},
		{"text", TString, func(i int) Datum { return Str(fmt.Sprintf("x%02d", i/3)) }},
	} {
		for _, shuffled := range []bool{false, true} {
			vals := make([]Datum, 40)
			for i := range vals {
				vals[i] = tc.gen(i)
			}
			if shuffled {
				rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			}
			db := kvDB(TInt, tc.typ)
			for i, v := range vals {
				db.MustInsert("kv", Int(int64(i)), v)
			}
			s := mustScan(t, db)
			l, ok := s.Lookup(1)
			if !ok {
				t.Fatalf("%s: no lookup on a total column", tc.name)
			}
			if l.path.sorted == shuffled {
				t.Fatalf("%s shuffled=%v: path.sorted = %v", tc.name, shuffled, l.path.sorted)
			}
			for _, probe := range append(probes, vals[0], vals[17], vals[39]) {
				got, want := keysOf(l.Find(probe)), scanFor(s.rows.all(), 1, probe)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s shuffled=%v: Find(%v %q) = %v, a scan finds %v", tc.name, shuffled, probe.Kind, probe.String(), got, want)
				}
			}
		}
	}
}

// TestPermutationIsExtendedAndCutAtTheMark: a scan sees the rows below its
// mark whatever the table's permutation has grown to since, and a later scan
// extends the permutation by the new rows only.
func TestPermutationIsExtendedAndCutAtTheMark(t *testing.T) {
	db := kvDB(TInt, TString)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			db.MustInsert("kv", Int(int64(i)), Str(fmt.Sprintf("v%d", (i*7)%5)))
		}
	}
	insert(0, 20)
	early := mustScan(t, db)
	earlyLookup, _ := early.Lookup(1)
	lateUnresolved, _ := early.Lookup(1) // same mark, first Find only after the table grew

	if got, want := keysOf(earlyLookup.Find(Str("v3"))), scanFor(early.rows.all(), 1, Str("v3")); !reflect.DeepEqual(got, want) {
		t.Fatalf("Find(v3) = %v, want %v", got, want)
	}
	tab, _ := db.Table("kv")
	first := tab.perms[1]
	if first == nil || len(first.order) != 20 {
		t.Fatalf("permutation after the first Find: %+v", first)
	}

	insert(20, 50)
	late := mustScan(t, db)
	lateLookup, _ := late.Lookup(1)
	for v := 0; v < 5; v++ {
		probe := Str(fmt.Sprintf("v%d", v))
		if got, want := keysOf(lateLookup.Find(probe)), scanFor(late.rows.all(), 1, probe); !reflect.DeepEqual(got, want) {
			t.Errorf("late scan: Find(%s) = %v, want %v", probe.S, got, want)
		}
		want := scanFor(early.rows.all(), 1, probe)
		if got := keysOf(earlyLookup.Find(probe)); !reflect.DeepEqual(got, want) {
			t.Errorf("early scan, permutation held: Find(%s) = %v, want %v", probe.S, got, want)
		}
		if got := keysOf(lateUnresolved.Find(probe)); !reflect.DeepEqual(got, want) {
			t.Errorf("early scan, permutation grown past its mark: Find(%s) = %v, want %v", probe.S, got, want)
		}
	}
	grown := tab.perms[1]
	if len(grown.order) != 50 || len(first.order) != 20 {
		t.Fatalf("extension must publish a new permutation and leave the old: %d, %d", len(grown.order), len(first.order))
	}
	// The extended order is the sorted order: by value, then position.
	for i := 1; i < len(grown.order); i++ {
		a, b := grown.order[i-1], grown.order[i]
		if c := Compare(late.rows.col(int(a), 1), late.rows.col(int(b), 1)); c > 0 || c == 0 && a > b {
			t.Fatalf("permutation out of order at %d: rows %d, %d", i, a, b)
		}
	}
	// A scan the permutation already covers costs no new one.
	mid := mustScan(t, db)
	l, _ := mid.Lookup(1)
	l.Find(Str("v1"))
	if tab.perms[1] != grown {
		t.Fatal("a covered scan replaced the permutation")
	}
}
