package relstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Type Type
}

// Schema describes a relation: its name, columns, and the positions of the
// key columns (the wrapper derives tuple object ids from them, Figure 2).
type Schema struct {
	Relation string
	Columns  []Column
	Key      []int
}

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table is one relation with its rows.
type Table struct {
	Schema Schema
	rows   packed

	// stats holds one accumulator per column (row counts fall out of
	// rows.n). Mutated only under the owning DB's exclusive lock;
	// snapshot through DB.TableStats and DB.Scan.
	stats []colStat
	// keyUnordered is set by the first Insert whose key is not strictly above
	// the previous row's; under the same lock as stats.
	keyUnordered bool

	// perms holds, per column, the sorted permutation behind Scan.Lookup on a
	// column that does not ascend in insertion order; nil until first used.
	permMu sync.Mutex
	perms  []*permutation
}

// Storage sizes. A full chunk or page is Go's 2 KiB size class; neither holds
// pointers, so the allocator keeps no header in it, and a table's last,
// partly filled chunk and page waste at most that. A table's first chunk and
// first page start at half that and double once, so a small table costs at
// most twice what its rows take, not a full chunk and page.
const (
	chunkRows      = 2 << 10 / 4
	pageBytes      = 2 << 10
	firstPageBytes = pageBytes / 2
	// maxText bounds a table's page bytes: a row's offset in the pages is 32
	// bits. Placing a row takes at most pageBytes besides its own bytes: the
	// rest of a page it does not fit.
	maxText = 1<<32 - 1
)

// packed is a table's rows, or a reader's prefix of them, in insertion
// order. A row is its values' bytes, back to back in the table's append-only
// byte pages: a string as its length (a uvarint) and its bytes, an int as a
// varint, a float as its eight bytes (Datum.I). A chunk holds the rows'
// offsets in the pages, 4 bytes a row. A resident row costs those bytes and
// nothing else — no Datum (32 bytes), no string header (16), no object of
// its own. The column kinds come from the schema, which Insert enforces, and
// say how to read a row's bytes.
//
// Offsets address pages as if each were pageBytes long: page k covers
// [k*pageBytes, (k+1)*pageBytes). A row never crosses a page boundary; one
// longer than a page gets a page of its own, sized to it, at the next
// boundary, and the page slots it spans after the first stay nil.
//
// A copy of the struct taken under the store lock is a stable snapshot beside
// a concurrent Insert: a row's bytes and offset are written once, before n
// counts it, and never again; full chunks and pages are only appended past a
// reader's length; and the first chunk and first page, when they double, are
// replaced by copies in fresh lists, leaving earlier snapshots theirs.
type packed struct {
	chunks [][]uint32
	pages  [][]byte
	kinds  []Type
	n      int    // rows present
	end    uint64 // the writer's next free offset in the pages
}

func newPacked(cols []Column) packed {
	kinds := make([]Type, len(cols))
	for i, c := range cols {
		kinds[i] = c.Type
	}
	return packed{kinds: kinds}
}

// row returns the bytes from row i's first value to the end of its page.
func (p *packed) row(i int) []byte {
	off := p.chunks[i/chunkRows][i%chunkRows]
	return p.pages[off/pageBytes][off%pageBytes:]
}

// col returns column c of row i, reading past the values before it (lookups
// and permutation merges call it per comparison).
func (p *packed) col(i, c int) Datum {
	b := p.row(i)
	for _, t := range p.kinds[:c] {
		_, b = readValue(b, t)
	}
	d, _ := readValue(b, p.kinds[c])
	return d
}

// appendRow appends row i's values to dst.
func (p *packed) appendRow(dst []Datum, i int) []Datum {
	b := p.row(i)
	for _, t := range p.kinds {
		var d Datum
		d, b = readValue(b, t)
		dst = append(dst, d)
	}
	return dst
}

// readValue reads a value of kind t from the head of b and returns it with
// the bytes after it. A string aliases b, without copying. That is sound
// because a row's bytes are written once, by Insert under the store's write
// lock, before the row is counted, and no byte of a page is ever written
// again — pages are append-only and a growing first page is copied, not
// moved. This is the one place the store aliases its bytes.
func readValue(b []byte, t Type) (Datum, []byte) {
	switch t {
	case TInt:
		v, k := binary.Varint(b)
		return Datum{Kind: TInt, I: v}, b[k:]
	case TFloat:
		return Datum{Kind: TFloat, I: int64(binary.LittleEndian.Uint64(b))}, b[8:]
	}
	n, k := binary.Uvarint(b)
	b = b[k:]
	if n == 0 {
		return Datum{Kind: TString}, b
	}
	return Datum{Kind: TString, S: unsafe.String(&b[0], n)}, b[n:]
}

// valueSize is how many bytes d takes in a row.
func valueSize(d Datum) uint64 {
	switch d.Kind {
	case TInt:
		return uvarintSize(uint64(d.I<<1) ^ uint64(d.I>>63)) // zigzag, as binary.PutVarint
	case TFloat:
		return 8
	}
	return uvarintSize(uint64(len(d.S))) + uint64(len(d.S))
}

func uvarintSize(x uint64) uint64 {
	n := uint64(1)
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// add stores row, whose kinds match the schema and whose values take size
// bytes that fit in the pages' offset space, as row n.
func (p *packed) add(row []Datum, size uint64) {
	off := p.place(size)
	b := p.pages[off/pageBytes][off%pageBytes:]
	for _, d := range row {
		switch d.Kind {
		case TInt:
			b = b[binary.PutVarint(b, d.I):]
		case TFloat:
			binary.LittleEndian.PutUint64(b, uint64(d.I))
			b = b[8:]
		default:
			b = b[binary.PutUvarint(b, uint64(len(d.S))):]
			b = b[copy(b, d.S):]
		}
	}
	k, r := p.n/chunkRows, p.n%chunkRows
	switch {
	case k == len(p.chunks):
		n := chunkRows
		if k == 0 {
			n /= 2
		}
		p.chunks = append(p.chunks, make([]uint32, n))
	case r == len(p.chunks[k]): // the first chunk, full at half its size
		grown := make([]uint32, chunkRows)
		copy(grown, p.chunks[0])
		p.chunks = [][]uint32{grown}
	}
	p.chunks[k][r] = uint32(off)
	p.n++
}

// place makes room for n bytes in the pages and returns their offset.
func (p *packed) place(n uint64) uint64 {
	if p.end%pageBytes+n > pageBytes {
		p.end = (p.end + pageBytes - 1) / pageBytes * pageBytes
	}
	k, in := int(p.end/pageBytes), p.end%pageBytes
	switch {
	case n > pageBytes:
		p.pages = append(p.pages, make([]byte, n))
		for span := (n - 1) / pageBytes; span > 0; span-- {
			p.pages = append(p.pages, nil)
		}
	case k == len(p.pages):
		size := uint64(pageBytes)
		if k == 0 {
			size = max(firstPageBytes, n)
		}
		p.pages = append(p.pages, make([]byte, size))
	case in+n > uint64(len(p.pages[k])): // the first page, full at half its size
		grown := make([]byte, pageBytes)
		copy(grown, p.pages[0])
		p.pages = [][]byte{grown}
	}
	off := p.end
	p.end += n
	if n > pageBytes {
		p.end = (p.end + pageBytes - 1) / pageBytes * pageBytes
	}
	return off
}

// all copies the rows out as [][]Datum, for callers that walk a whole
// relation once (fixtures, exports, tests).
func (p *packed) all() [][]Datum {
	w := len(p.kinds)
	flat := make([]Datum, 0, p.n*w)
	out := make([][]Datum, p.n)
	for i := range out {
		flat = p.appendRow(flat, i)
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// Rows returns every row in insertion order. It reads the table unlocked:
// for fixtures and tests, not beside a writer.
func (t *Table) Rows() [][]Datum { return t.rows.all() }

// DB is one relational server: a named set of tables plus transfer counters.
// It is safe for concurrent readers once loaded; mutations (Create, Insert)
// may also run concurrently with readers, who must take row snapshots
// through Scan or RowsSnapshot instead of Table.Rows.
type DB struct {
	Name string

	mu     sync.RWMutex
	tables map[string]*Table

	tuplesShipped   atomic.Int64
	queriesReceived atomic.Int64

	// version counts mutations (Create, Insert). The source result cache
	// folds it into its keys, so any mutation makes every cached result for
	// this server unreachable — O(1) invalidation; the cache drops them when
	// it next sees the new version.
	version atomic.Int64
}

// NewDB creates an empty server.
func NewDB(name string) *DB {
	return &DB{Name: name, tables: map[string]*Table{}}
}

// Create adds an empty table. It returns an error if the relation exists,
// the schema has no columns, or a key position is out of range.
func (db *DB) Create(s Schema) (*Table, error) {
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("relstore: relation %s has no columns", s.Relation)
	}
	for _, k := range s.Key {
		if k < 0 || k >= len(s.Columns) {
			return nil, fmt.Errorf("relstore: relation %s key position %d out of range", s.Relation, k)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[s.Relation]; exists {
		return nil, fmt.Errorf("relstore: relation %s already exists", s.Relation)
	}
	t := &Table{Schema: s, rows: newPacked(s.Columns), stats: make([]colStat, len(s.Columns)), perms: make([]*permutation, len(s.Columns))}
	db.tables[s.Relation] = t
	db.version.Add(1)
	return t, nil
}

// MustCreate is Create that panics on error; for fixtures.
func (db *DB) MustCreate(s Schema) *Table {
	t, err := db.Create(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Insert appends a copy of row after checking arity and types. The check is
// what the storage relies on: a column keeps only the values of its type. The
// row's values are encoded into the table's pages; nothing is allocated per
// row beyond the chunks and pages it fills.
func (db *DB) Insert(relation string, row []Datum) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[relation]
	if !ok {
		return fmt.Errorf("relstore: unknown relation %s", relation)
	}
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("relstore: relation %s expects %d values, got %d",
			relation, len(t.Schema.Columns), len(row))
	}
	var size uint64 // the row's bytes in the pages
	for i, d := range row {
		if d.Kind != t.Schema.Columns[i].Type {
			return fmt.Errorf("relstore: relation %s column %s expects %s, got %s",
				relation, t.Schema.Columns[i].Name, t.Schema.Columns[i].Type, d.Kind)
		}
		size += valueSize(d)
	}
	if t.rows.end+size+pageBytes > maxText {
		return fmt.Errorf("relstore: relation %s holds more than %d bytes of rows", relation, maxText)
	}
	if n := t.rows.n; n > 0 && !t.keyUnordered {
		t.keyUnordered = !keyBelow(&t.rows, n-1, row, t.Schema.Key)
	}
	t.rows.add(row, size)
	for i, d := range row {
		t.stats[i].note(d)
	}
	db.version.Add(1)
	return nil
}

// keyBelow reports whether stored row i's key is strictly below row's,
// comparing the key columns in order.
func keyBelow(rows *packed, i int, row []Datum, key []int) bool {
	for _, k := range key {
		if c := Compare(rows.col(i, k), row[k]); c != 0 {
			return c < 0
		}
	}
	return false
}

// MustInsert is Insert that panics on error; for fixtures.
func (db *DB) MustInsert(relation string, row ...Datum) {
	if err := db.Insert(relation, row); err != nil {
		panic(err)
	}
}

// Table returns the named table.
func (db *DB) Table(relation string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[relation]
	return t, ok
}

// RowsSnapshot returns a copy of the relation's current rows, read under
// the store lock, so it is stable beside concurrent mutations — readers that
// walk a relation while producer goroutines insert must use it (or Scan)
// instead of Table.Rows.
func (db *DB) RowsSnapshot(relation string) ([][]Datum, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[relation]
	if !ok {
		return nil, false
	}
	return t.rows.all(), true
}

// Version reports the mutation counter: it increases on every Create and
// Insert. Cache keys embed it so cached results are valid exactly for the
// store state they were computed against.
func (db *DB) Version() int64 { return db.version.Load() }

// Relations lists the relation names, sorted.
func (db *DB) Relations() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for name := range db.tables {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Stats is a snapshot of the server's transfer counters.
type Stats struct {
	TuplesShipped   int64 // rows delivered through cursors
	QueriesReceived int64 // SQL queries executed
}

// Stats snapshots the counters.
func (db *DB) Stats() Stats {
	return Stats{
		TuplesShipped:   db.tuplesShipped.Load(),
		QueriesReceived: db.queriesReceived.Load(),
	}
}

// ResetStats zeroes the counters (between experiment runs).
func (db *DB) ResetStats() {
	db.tuplesShipped.Store(0)
	db.queriesReceived.Store(0)
}

// NoteQuery records that one query arrived; the executor calls it.
func (db *DB) NoteQuery() { db.queriesReceived.Add(1) }

// NoteShipped records rows delivered to the mediator; cursors call it.
func (db *DB) NoteShipped(n int64) { db.tuplesShipped.Add(n) }

// Cursor delivers result rows one at a time — the pipelined partial-result
// interface the paper assumes of relational sources.
type Cursor interface {
	// Next returns the next row, or ok=false when exhausted.
	Next() (row []Datum, ok bool)
	// Close releases the cursor. Closing twice is allowed.
	Close()
}
