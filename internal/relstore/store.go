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

// Chunk sizes: Go's 8 KiB size class, less the 8 bytes its allocator keeps
// in an object that holds pointers for the strings, so a chunk wastes less
// than one row.
const (
	chunkStrings = (8<<10 - 8) / 16
	chunkNumbers = 8 << 10 / 8
)

// packed is a table's rows, or a reader's prefix of them, in insertion
// order, stored by column type: a chunk holds per rows as back-to-back
// string values (16 bytes each) and back-to-back numbers (8 bytes each, an
// int or a float's bits — Datum.I). A resident row costs its values and
// nothing else: no Datum's kind word and unused halves (a Datum is 32
// bytes), no slice header in an outer list, no object of its own. The
// column kinds come from the schema, which Insert enforces. Chunks are
// allocated at full length and only ever written past n, and the chunk list
// only grows, so a copy of the struct taken under the store lock is a
// stable snapshot beside a concurrent Insert.
type packed struct {
	chunks []chunk
	l      *layout
	n      int // rows present
}

type chunk struct {
	s []string
	v []int64
}

// layout places a schema's columns in a chunk.
type layout struct {
	kinds  []Type
	at     []int // per column: its index among the row's strings or numbers
	ns, nv int   // strings and numbers a row holds
	per    int   // rows per chunk
}

func newPacked(cols []Column) packed {
	l := &layout{kinds: make([]Type, len(cols)), at: make([]int, len(cols))}
	for i, c := range cols {
		l.kinds[i] = c.Type
		if c.Type == TString {
			l.at[i], l.ns = l.ns, l.ns+1
		} else {
			l.at[i], l.nv = l.nv, l.nv+1
		}
	}
	l.per = chunkStrings + chunkNumbers
	if l.ns > 0 {
		l.per = min(l.per, chunkStrings/l.ns)
	}
	if l.nv > 0 {
		l.per = min(l.per, chunkNumbers/l.nv)
	}
	l.per = max(1, l.per)
	return packed{l: l}
}

// values returns row i's strings and numbers, in the layout's order.
func (p packed) values(i int) ([]string, []int64) {
	l := p.l
	k := i / l.per
	r := i - k*l.per
	c := &p.chunks[k]
	return c.s[r*l.ns : (r+1)*l.ns], c.v[r*l.nv : (r+1)*l.nv]
}

// col returns column c of row i, reading only that value (lookups and
// permutation merges call it per comparison).
func (p packed) col(i, c int) Datum {
	l := p.l
	k := i / l.per
	r := i - k*l.per
	if t := l.kinds[c]; t != TString {
		return Datum{Kind: t, I: p.chunks[k].v[r*l.nv+l.at[c]]}
	}
	return Datum{Kind: TString, S: p.chunks[k].s[r*l.ns+l.at[c]]}
}

// appendRow appends row i's values to dst.
func (p packed) appendRow(dst []Datum, i int) []Datum {
	s, v := p.values(i)
	for c, t := range p.l.kinds {
		if t == TString {
			dst = append(dst, Datum{Kind: TString, S: s[p.l.at[c]]})
		} else {
			dst = append(dst, Datum{Kind: t, I: v[p.l.at[c]]})
		}
	}
	return dst
}

// add stores row, whose kinds match the layout, as row n.
func (p *packed) add(row []Datum) {
	l := p.l
	if p.n == len(p.chunks)*l.per {
		p.chunks = append(p.chunks, chunk{s: make([]string, l.per*l.ns), v: make([]int64, l.per*l.nv)})
	}
	s, v := p.values(p.n)
	for c, d := range row {
		if l.kinds[c] == TString {
			s[l.at[c]] = d.S
		} else {
			v[l.at[c]] = d.I
		}
	}
	p.n++
}

// all copies the rows out as [][]Datum, for callers that walk a whole
// relation once (fixtures, exports, tests).
func (p packed) all() [][]Datum {
	w := len(p.l.kinds)
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
// what the storage relies on: a column keeps only the values of its type.
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
		t.keyUnordered = !keyBelow(t.rows, n-1, row, t.Schema.Key)
	}
	t.rows.add(row)
	for i, d := range row {
		t.stats[i].note(d)
	}
	db.version.Add(1)
	return nil
}

// keyBelow reports whether stored row i's key is strictly below row's,
// comparing the key columns in order.
func keyBelow(rows packed, i int, row []Datum, key []int) bool {
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
