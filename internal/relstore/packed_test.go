package relstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// packedInput turns fuzz bytes into a schema and rows: the first byte picks
// up to four columns, one byte each picks a column's kind, and the rest is
// read column by column, row after row. An int's first byte, when odd, says
// its next eight are the int. A string's length byte of 240 or more makes it
// longer than a page, one of 200 to 239 up to a page long, any other shorter
// than 24 bytes; its bytes are the input's, cycled, so they hold whatever the
// input holds, \x00 included.
func packedInput(data []byte) ([]Type, [][]Datum) {
	if len(data) == 0 {
		return nil, nil
	}
	pos := 0
	next := func() byte {
		b := data[pos%len(data)]
		pos++
		return b
	}
	kinds := make([]Type, 1+int(next())%4)
	for i := range kinds {
		kinds[i] = Type(next() % 3)
	}
	var rows [][]Datum
	for len(rows) < 64 && pos < len(data) {
		row := make([]Datum, len(kinds))
		for c, k := range kinds {
			switch k {
			case TInt:
				if b := next(); b&1 == 0 {
					row[c] = Int(int64(int8(b)) * int64(next()))
				} else {
					var w [8]byte
					for i := range w {
						w[i] = next()
					}
					row[c] = Int(int64(binary.LittleEndian.Uint64(w[:])))
				}
			case TFloat:
				var b [8]byte
				for i := range b {
					b[i] = next()
				}
				row[c] = Float(math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			default:
				n := int(next())
				switch {
				case n >= 240:
					n = (n-239)*3000 + n
				case n >= 200:
					n = (n - 199) * 50
				default:
					n %= 24
				}
				var sb strings.Builder
				for i := 0; i < n; i++ {
					sb.WriteByte(next())
				}
				row[c] = Str(sb.String())
			}
		}
		rows = append(rows, row)
	}
	return kinds, rows
}

// FuzzPackedRows: whatever the schema and the values — empty strings,
// strings longer than a page, strings holding \x00, NaNs — a table returns
// exactly what was inserted, through Scan.All, through every lookup its
// columns offer, and one value at a time.
func FuzzPackedRows(f *testing.F) {
	f.Add([]byte{2, 2, 0, 0, 'a', 3, 1, 'x', 'y', 0, 200, 5})
	f.Add([]byte{1, 2, 0, 1, 0, 3, 0, 'a', 0, 0, 'b'})
	f.Add([]byte{0, 2, 245, 'p', 0, 'q', 3, 'r', 's', 't'})
	f.Add([]byte{0, 2, 5, 'a', 'b', 'c', 'd', 'e', 215, 0, 'x'}) // a short string, then one that outgrows the first page
	f.Add([]byte{3, 2, 1, 0, 2, 4, 'k', 'e', 'y', '1', 0xff, 0xf8, 0x7f, 0, 0, 0, 0, 0, 9, 4, 'a', 0, 'b', 1})
	f.Add([]byte{1, 0, 2, 1, 0, 0, 0, 0x40, 0, 0, 0, 0, 3, 'a', 'b', 'c', 3, 0xff, 0xff, 0xff, 0xbf, 0xff, 0xff, 0xff, 0xff, 0}) // wide ints, 2^30 and -2^30-1
	f.Fuzz(func(t *testing.T, data []byte) {
		kinds, rows := packedInput(data)
		if kinds == nil {
			return
		}
		cols := make([]Column, len(kinds))
		for i, k := range kinds {
			cols[i] = Column{Name: fmt.Sprint("c", i), Type: k}
		}
		db := NewDB("fuzz")
		db.MustCreate(Schema{Relation: "r", Columns: cols, Key: []int{0}})
		for _, row := range rows {
			if err := db.Insert("r", row); err != nil {
				t.Fatal(err)
			}
		}
		s, _ := db.Scan("r")
		all := s.All()
		var got []Datum
		for i, want := range rows {
			var ok bool
			if got, ok = all.Next(got[:0]); !ok {
				t.Fatalf("Scan.All ends after %d of %d rows", i, len(rows))
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("row %d column %d: All gives %#v, inserted %#v", i, c, got[c], want[c])
				}
				if d := s.rows.col(i, c); d != want[c] {
					t.Fatalf("row %d column %d: col gives %#v, inserted %#v", i, c, d, want[c])
				}
			}
		}
		if _, ok := all.Next(nil); ok {
			t.Fatal("Scan.All returns more rows than were inserted")
		}
		for c := range kinds {
			l, ok := s.Lookup(c)
			if !ok {
				continue
			}
			for _, probe := range rows {
				var want []int
				for i, row := range rows {
					if Compare(row[c], probe[c]) == 0 {
						want = append(want, i)
					}
				}
				m := l.Find(probe[c])
				for k := 0; ; k++ {
					row, ok := m.Next(nil)
					if !ok {
						if k != len(want) {
							t.Fatalf("column %d: Find(%#v) gives %d rows, want %d", c, probe[c], k, len(want))
						}
						break
					}
					if k >= len(want) {
						t.Fatalf("column %d: Find(%#v) gives more than %d rows", c, probe[c], len(want))
					}
					for j := range row {
						if row[j] != rows[want[k]][j] {
							t.Fatalf("column %d: Find(%#v) row %d is %v, want row %d %v", c, probe[c], k, row, want[k], rows[want[k]])
						}
					}
				}
			}
		}
	})
}

// TestScansBesideAWriterOpeningPages audits (under -race, with -count=10 in
// CI's sense of "many interleavings") the pages' snapshot rule: a writer
// inserts rows whose strings fill the first page while it doubles, open full
// pages, and need pages of their own; readers take scans meanwhile and check
// every row below their mark — and strings they read earlier, which alias
// pages the writer has since copied or left behind — against what was
// inserted.
func TestScansBesideAWriterOpeningPages(t *testing.T) {
	text := func(i int) string {
		n := (i * 37) % 300
		if i%40 == 39 {
			n = pageBytes + 808
		}
		return strings.Repeat(string(rune('a'+i%26)), n) + "\x00" + fmt.Sprint(i)
	}
	db := NewDB("db")
	db.MustCreate(Schema{
		Relation: "r",
		Columns:  []Column{{Name: "id", Type: TInt}, {Name: "s", Type: TString}, {Name: "w", Type: TInt}},
		Key:      []int{0},
	})
	const rows, readers = 400, 3
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rows; i++ {
			db.MustInsert("r", Int(int64(i)), Str(text(i)), Int(int64(i)<<40))
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var held []string
			for n := 0; n < rows; {
				s, _ := db.Scan("r")
				all := s.All()
				n = 0
				for row := []Datum(nil); ; n++ {
					var ok bool
					if row, ok = all.Next(row[:0]); !ok {
						break
					}
					if row[0].I != int64(n) || row[1].S != text(n) || row[2].I != int64(n)<<40 {
						t.Errorf("reader %d: row %d reads (%d, %.20q, %d)", r, n, row[0].I, row[1].S, row[2].I)
						return
					}
					if n%50 == r {
						held = append(held, row[1].S)
					}
				}
				if l, ok := s.Lookup(1); ok && n > 0 {
					probe := Str(text(n / 2))
					m := l.Find(probe)
					if row, ok := m.Next(nil); !ok || row[0].I != int64(n/2) {
						t.Errorf("reader %d: Find(text(%d)) at mark %d gives %v", r, n/2, n, row)
						return
					}
				}
			}
			for _, h := range held {
				var i int
				if _, err := fmt.Sscan(h[strings.IndexByte(h, 0)+1:], &i); err != nil || h != text(i) {
					t.Errorf("reader %d: a string read earlier now reads %.20q", r, h)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
