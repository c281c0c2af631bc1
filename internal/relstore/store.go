package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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

// chunkDatums is the backing array rows share: Go's 8 KiB size class less
// the 8 bytes its allocator keeps in an object that holds pointers, in
// 32-byte datums, so a chunk wastes less than one row.
const chunkDatums = (8<<10 - 8) / 32

// packed is a table's rows, or a reader's prefix of them, in insertion
// order: fixed-width rows back to back in chunks of per rows. A resident row
// costs its datums and nothing else — no slice header in an outer list (24
// bytes on a 96-byte row), no object of its own. Chunks are allocated at
// full length and only ever written past n, and the chunk list only grows,
// so a copy of the struct taken under the store lock is a stable snapshot
// beside a concurrent Insert.
type packed struct {
	chunks [][]Datum
	w, per int // row width; rows per chunk
	n      int // rows present
}

func newPacked(width int) packed {
	return packed{w: width, per: max(1, chunkDatums/width)}
}

// at returns row i, capped so an append cannot reach its neighbour.
func (p packed) at(i int) []Datum {
	c := i / p.per
	o := (i - c*p.per) * p.w
	return p.chunks[c][o : o+p.w : o+p.w]
}

// add copies row in as row n.
func (p *packed) add(row []Datum) {
	if p.n == len(p.chunks)*p.per {
		p.chunks = append(p.chunks, make([]Datum, p.per*p.w))
	}
	p.n++
	copy(p.at(p.n-1), row)
}

// all builds the [][]Datum view of the rows: one header per row, for callers
// that walk a whole relation once (fixtures, exports, tests).
func (p packed) all() [][]Datum {
	out := make([][]Datum, p.n)
	for i := range out {
		out[i] = p.at(i)
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
	t := &Table{Schema: s, rows: newPacked(len(s.Columns)), stats: make([]colStat, len(s.Columns)), perms: make([]*permutation, len(s.Columns))}
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

// Insert appends a copy of row after checking arity and types.
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
	for i, d := range row {
		if d.Kind != t.Schema.Columns[i].Type {
			return fmt.Errorf("relstore: relation %s column %s expects %s, got %s",
				relation, t.Schema.Columns[i].Name, t.Schema.Columns[i].Type, d.Kind)
		}
	}
	if n := t.rows.n; n > 0 && !t.keyUnordered {
		t.keyUnordered = !keyBelow(t.rows.at(n-1), row, t.Schema.Key)
	}
	t.rows.add(row)
	for i, d := range row {
		t.stats[i].note(d)
	}
	db.version.Add(1)
	return nil
}

// keyBelow reports whether row a's key is strictly below row b's, comparing
// the key columns in order.
func keyBelow(a, b []Datum, key []int) bool {
	for _, k := range key {
		if c := Compare(a[k], b[k]); c != 0 {
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

// RowsSnapshot returns the relation's current rows, read under the store
// lock. Insert only ever appends (rows are never edited in place), so the
// snapshot is stable beside concurrent mutations — readers that walk a
// relation while producer goroutines insert must use it instead of
// Table.Rows.
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
