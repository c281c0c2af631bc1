package relstore

import (
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func custSchema() Schema {
	return Schema{
		Relation: "customer",
		Columns: []Column{
			{Name: "id", Type: TString},
			{Name: "name", Type: TString},
			{Name: "balance", Type: TInt},
		},
		Key: []int{0},
	}
}

func TestCreateAndInsert(t *testing.T) {
	db := NewDB("test")
	if _, err := db.Create(custSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("customer", []Datum{Str("A"), Str("Alice"), Int(10)}); err != nil {
		t.Fatal(err)
	}
	tab, ok := db.Table("customer")
	if !ok || len(tab.Rows()) != 1 {
		t.Fatalf("table lookup: %v %v", ok, tab)
	}
}

func TestCreateErrors(t *testing.T) {
	db := NewDB("test")
	if _, err := db.Create(Schema{Relation: "empty"}); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := db.Create(Schema{Relation: "badkey", Columns: []Column{{Name: "a", Type: TInt}}, Key: []int{5}}); err == nil {
		t.Error("out-of-range key accepted")
	}
	db.MustCreate(custSchema())
	if _, err := db.Create(custSchema()); err == nil {
		t.Error("duplicate relation accepted")
	}
}

func TestInsertErrors(t *testing.T) {
	db := NewDB("test")
	db.MustCreate(custSchema())
	if err := db.Insert("nope", []Datum{Str("x")}); err == nil {
		t.Error("insert into unknown relation accepted")
	}
	if err := db.Insert("customer", []Datum{Str("A")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := db.Insert("customer", []Datum{Str("A"), Str("B"), Str("oops")}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestRelations(t *testing.T) {
	db := NewDB("test")
	db.MustCreate(Schema{Relation: "zzz", Columns: []Column{{Name: "a", Type: TInt}}})
	db.MustCreate(Schema{Relation: "aaa", Columns: []Column{{Name: "a", Type: TInt}}})
	got := db.Relations()
	if len(got) != 2 || got[0] != "aaa" || got[1] != "zzz" {
		t.Fatalf("Relations = %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	db := NewDB("test")
	db.NoteQuery()
	db.NoteShipped(7)
	db.NoteShipped(3)
	s := db.Stats()
	if s.QueriesReceived != 1 || s.TuplesShipped != 10 {
		t.Fatalf("stats = %+v", s)
	}
	db.ResetStats()
	if s := db.Stats(); s.QueriesReceived != 0 || s.TuplesShipped != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestSchemaColIndex(t *testing.T) {
	s := custSchema()
	if s.ColIndex("name") != 1 || s.ColIndex("missing") != -1 {
		t.Fatal("ColIndex")
	}
}

func TestDatumString(t *testing.T) {
	cases := map[string]Datum{
		"42":    Int(42),
		"-7":    Int(-7),
		"2.5":   Float(2.5),
		"hello": Str("hello"),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestDatumCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{Int(2), Int(10), -1},
		{Int(10), Float(10.0), 0},
		{Float(2.5), Int(2), 1},
		{Str("2"), Int(10), -1}, // numeric string vs int: numeric
		{Str("abc"), Str("abd"), -1},
		{Str("abc"), Int(5), 1}, // "abc" > "5" lexicographically
	}
	for i, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("case %d: Compare = %d, want %d", i, got, c.want)
		}
	}
}

func TestParseDatum(t *testing.T) {
	if d, err := ParseDatum(TInt, "42"); err != nil || d.I != 42 {
		t.Errorf("ParseDatum int: %v %v", d, err)
	}
	if d, err := ParseDatum(TFloat, "2.5"); err != nil || d.F() != 2.5 {
		t.Errorf("ParseDatum float: %v %v", d, err)
	}
	if d, err := ParseDatum(TString, "x"); err != nil || d.S != "x" {
		t.Errorf("ParseDatum string: %v %v", d, err)
	}
	if _, err := ParseDatum(TInt, "abc"); err == nil {
		t.Error("ParseDatum accepted a non-integer")
	}
	if _, err := ParseDatum(TFloat, "abc"); err == nil {
		t.Error("ParseDatum accepted a non-float")
	}
}

func TestTypeString(t *testing.T) {
	if TInt.String() != "INT" || TFloat.String() != "FLOAT" || TString.String() != "STRING" {
		t.Fatal("type names")
	}
}

// Property: Compare is antisymmetric and reflexive over int datums, and
// agrees with native ordering.
func TestCompareProperty(t *testing.T) {
	f := func(a, b int32) bool {
		da, dbm := Int(int64(a)), Int(int64(b))
		c1, c2 := Compare(da, dbm), Compare(dbm, da)
		if c1 != -c2 {
			return false
		}
		switch {
		case a < b:
			return c1 == -1
		case a > b:
			return c1 == 1
		default:
			return c1 == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestResidentRowCostsItsDatums pins what a loaded table keeps per row: its
// values' bytes — a string's length byte and bytes, an int's varint, a
// float's eight bytes — and a 4-byte offset, and nothing else: no Datums, no
// string headers, no object per string, no slice header in an outer list.
// Rows must stay within 2% of that, plus 16 KiB for the table's fixed parts
// (column statistics, chunk and page lists), so a customer row of three
// strings averaging 9 bytes is 34 bytes (48 plus the strings' own objects as
// string headers, 96 as Datums, 120 as a [][]Datum table). A 50-row table
// costs what its rows take, doubled at worst, plus 4 KiB — not a full chunk
// and page. The store is what a mediator process retains, so this is the
// floor under the benchmark's heap_live_mb.
func TestResidentRowCostsItsDatums(t *testing.T) {
	texts := []string{"C000001", "Corp000001", "LosAngeles", "O00000001"}
	for _, tc := range []struct {
		name       string
		types      []Type
		rows       int
		pct, fixed int64 // allowance: pct% of the values, plus fixed bytes
	}{
		{"customer-shaped", []Type{TString, TString, TString}, 20000, 2, 16 << 10},
		{"orders-shaped", []Type{TString, TString, TInt}, 20000, 2, 16 << 10},
		{"numbers", []Type{TInt, TFloat, TInt}, 20000, 2, 16 << 10},
		{"small customer-shaped", []Type{TString, TString, TString}, 50, 100, 4 << 10},
	} {
		var cols []Column
		for i, typ := range tc.types {
			cols = append(cols, Column{Name: string(rune('a' + i)), Type: typ})
		}
		row := make([]Datum, len(cols))
		var values int64
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		db := NewDB("db")
		db.MustCreate(Schema{Relation: "r", Columns: cols, Key: []int{0}})
		for i := 0; i < tc.rows; i++ {
			values += 4
			for c, typ := range tc.types {
				switch typ {
				case TString:
					row[c] = Str(texts[(i+c)%len(texts)])
					values += 1 + int64(len(row[c].S))
				case TFloat:
					row[c] = Float(float64(i) / 2)
					values += 8
				default:
					row[c] = Int(int64(i * (c + 1)))
					values += int64(binary.PutVarint(make([]byte, binary.MaxVarintLen64), row[c].I))
				}
			}
			db.MustInsert("r", row...)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		got := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		if got > values+values*tc.pct/100+tc.fixed {
			t.Errorf("%s: %d rows keep %d bytes resident, %.1f a row; their values are %.1f", tc.name, tc.rows, got, float64(got)/float64(tc.rows), float64(values)/float64(tc.rows))
		}
		runtime.KeepAlive(db)
	}
}

// TestInsertAllocatesNothingPerRow: Insert encodes a row into a page and its
// offset into a chunk; only filling a chunk or a page allocates.
func TestInsertAllocatesNothingPerRow(t *testing.T) {
	db := NewDB("db")
	db.MustCreate(custSchema())
	row := []Datum{Str("C000001"), Str("Corp000001"), Int(5)}
	i := int64(0)
	allocs := testing.AllocsPerRun(5000, func() {
		i++
		row[2] = Int(i)
		if err := db.Insert("customer", row); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Insert allocates %v times a row, want 0", allocs)
	}
}

// TestInsertRejectsWrongType: a column stores only values of its schema
// type, so a value of another kind — a float for an int column included,
// though both are a number word — is an error that leaves the table as it
// was.
func TestInsertRejectsWrongType(t *testing.T) {
	db := NewDB("test")
	db.MustCreate(Schema{Relation: "r", Columns: []Column{{Name: "n", Type: TInt}, {Name: "s", Type: TString}}})
	db.MustInsert("r", Int(1), Str("one"))
	v := db.Version()
	for _, row := range [][]Datum{
		{Float(2), Str("two")},
		{Str("2"), Str("two")},
		{Int(2), Int(2)},
	} {
		err := db.Insert("r", row)
		if err == nil {
			t.Fatalf("insert %v accepted", row)
		}
		if want := "expects"; !strings.Contains(err.Error(), want) {
			t.Fatalf("insert %v: error %q does not say what the column expects", row, err)
		}
	}
	if db.Version() != v {
		t.Fatal("a rejected insert moved the version")
	}
	tab, _ := db.Table("r")
	if got := tab.Rows(); len(got) != 1 || got[0][0] != Int(1) || got[0][1] != Str("one") {
		t.Fatalf("rows after rejected inserts = %v", got)
	}
}
