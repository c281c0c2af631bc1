package relstore

import (
	"math"
	"sort"
)

// Scan is one reader's view of a relation: the rows that existed when it was
// opened — its row-count mark; Insert only appends, so that prefix never
// changes beside a concurrent writer — and the two access paths that hold
// over exactly that prefix: whether the key ascends strictly in insertion
// order, and an equality lookup on any column Compare is total on. Both are
// decided from flags Insert maintains next to the column statistics, read
// under the same lock as the rows, so they describe the marked prefix and
// nothing after it.
type Scan struct {
	Schema Schema

	rows         packed
	t            *Table
	cols         []colPath
	keyAscending bool
}

// colPath is what a Scan knows of one column at its mark.
type colPath struct {
	total   bool // Compare is a total preorder on the column: it can be searched
	sorted  bool // the rows themselves ascend on it; otherwise a permutation does
	numeric bool // its values are numbers, or strings that parse as numbers
}

// Scan opens a view of the relation as it is now.
func (db *DB) Scan(relation string) (*Scan, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[relation]
	if !ok {
		return nil, false
	}
	s := &Scan{Schema: t.Schema, rows: t.rows, t: t, cols: make([]colPath, len(t.stats))}
	for i := range t.stats {
		c := &t.stats[i]
		s.cols[i] = colPath{total: c.total(), sorted: !c.unsorted, numeric: c.sawNumber}
	}
	s.keyAscending = len(t.Schema.Key) > 0 && !t.keyUnordered
	for _, k := range t.Schema.Key {
		s.keyAscending = s.keyAscending && s.cols[k].total
	}
	return s, true
}

// KeyAscending reports whether every row's key is strictly above the key of
// the row inserted before it (columns compared in Schema.Key order, by
// Compare), so that insertion order is key order and no two rows share a
// key. The store does not enforce key uniqueness; a duplicate clears the flag
// like any other step that is not upwards.
func (s *Scan) KeyAscending() bool { return s.keyAscending }

// All is every row of the scan, in insertion order.
func (s *Scan) All() Matches { return Matches{rows: s.rows, hi: s.rows.n} }

// Lookup returns the equality access path on the column at position col, or
// false when Compare is not total on it and the column can only be scanned.
func (s *Scan) Lookup(col int) (*Lookup, bool) {
	p := s.cols[col]
	if !p.total || s.rows.n > math.MaxInt32 {
		return nil, false
	}
	return &Lookup{scan: s, col: col, path: p}, true
}

// Lookup finds the rows of a Scan whose column equals a probe value, where
// "equals" is Compare == 0 — the = of a scan filter and of the mediator. A
// column that ascends in insertion order is searched in place; any other
// through a permutation of row positions the table keeps, sorted on first
// use. A Lookup belongs to one cursor and is not safe for concurrent use.
type Lookup struct {
	scan *Scan
	col  int
	path colPath
	perm *permutation // resolved by the first Find that needs it
}

// Find returns the rows with column = probe, in insertion order.
func (l *Lookup) Find(probe Datum) Matches {
	rows := l.scan.rows
	pn, pok := probe.numeric()
	if l.path.numeric {
		// Against a number Compare reads the probe as a number too, falling
		// back to the number's text for a probe that is none — and no such
		// text equals a number's. A NaN probe compares equal to every number.
		switch {
		case !pok:
			return Matches{}
		case pn != pn:
			return l.scan.All()
		}
	}
	// Compare with the probe read once.
	compare := func(d Datum) int {
		dn, dok := d.numeric()
		return compareRead(d, dn, dok, probe, pn, pok)
	}
	if l.path.sorted {
		lo, hi := equalRange(rows.n, func(i int) int { return compare(rows.col(i, l.col)) })
		return Matches{rows: rows, next: lo, hi: hi}
	}
	if l.perm == nil {
		l.perm = l.scan.t.permutation(l.col, rows)
	}
	p := l.perm
	lo, hi := equalRange(len(p.order), func(i int) int { return compare(p.rows.col(int(p.order[i]), l.col)) })
	run := p.order[lo:hi]
	if p.rows.n > rows.n {
		// A later scan extended the permutation past this scan's mark. Equal
		// values sit in position order, so the rows this scan may see are a
		// prefix of the run.
		run = run[:sort.Search(len(run), func(i int) bool { return int(run[i]) >= rows.n })]
	}
	if len(run) == 0 {
		return Matches{}
	}
	return Matches{rows: p.rows, perm: run, hi: len(run)}
}

// equalRange returns the bounds [lo, hi) of the positions where cmp is zero,
// given that cmp (element against probe) ascends over 0..n-1.
func equalRange(n int, cmp func(i int) int) (lo, hi int) {
	lo = sort.Search(n, func(i int) bool { return cmp(i) >= 0 })
	hi = lo + sort.Search(n-lo, func(i int) bool { return cmp(lo+i) > 0 })
	return lo, hi
}

// Matches is a run of a Scan's rows in insertion order: what All or one Find
// returned. The zero Matches is empty.
type Matches struct {
	rows     packed
	perm     []int32 // positions in rows; nil: the run is rows next..hi-1
	next, hi int     // cursor and end, over perm when set, else over rows
}

// Next appends the next row of the run to dst and returns the result, or
// returns dst and ok=false after the last. The store keeps rows by column
// type, not as Datums, so a reader copies each row out; reusing dst keeps
// the walk allocation-free.
func (m *Matches) Next(dst []Datum) (row []Datum, ok bool) {
	if m.next >= m.hi {
		return dst, false
	}
	i := m.next
	if m.perm != nil {
		i = int(m.perm[i])
	}
	m.next++
	return m.rows.appendRow(dst, i), true
}

// permutation is the positions of a table prefix sorted by (column value,
// position): 4 bytes a row, against the 50-odd a map entry per key would
// take. Immutable once published; a scan with a higher mark publishes a
// longer one and readers of the old keep theirs.
type permutation struct {
	rows  packed // the prefix order covers
	order []int32
}

// permutation returns the column's sorted permutation over at least rows,
// sorting only the positions the table's current one does not cover yet and
// merging them in. The caller's scan found Compare total on rows, and every
// earlier caller on its own shorter prefix, so the order is well defined.
func (t *Table) permutation(col int, rows packed) *permutation {
	t.permMu.Lock()
	defer t.permMu.Unlock()
	p := t.perms[col]
	if p != nil && p.rows.n >= rows.n {
		return p
	}
	var old []int32
	if p != nil {
		old = p.order
	}
	order := make([]int32, rows.n)
	fresh := order[len(old):]
	for i := range fresh {
		fresh[i] = int32(len(old) + i)
	}
	less := func(a, b int32) bool { return Compare(rows.col(int(a), col), rows.col(int(b), col)) < 0 }
	sort.SliceStable(fresh, func(i, j int) bool { return less(fresh[i], fresh[j]) })
	// Merge forwards into order, whose tail holds fresh: the write index
	// never passes the unread part of fresh, and once old is used up the rest
	// of fresh is already in place. Every old position is below every fresh
	// one, so ties go to old.
	for w, o, f := 0, 0, len(old); o < len(old); w++ {
		if f < len(order) && less(order[f], old[o]) {
			order[w] = order[f]
			f++
		} else {
			order[w] = old[o]
			o++
		}
	}
	p = &permutation{rows: rows, order: order}
	t.perms[col] = p
	return p
}
