package relstore

import (
	"math"
)

// Per-column NDV sketches use linear counting: a fixed bitmap of ndvBits
// cells, one hash probe per inserted value, estimate -m·ln(z/m) from the
// fraction z/m of cells still zero. At 4096 cells the estimate stays within
// a few percent up to roughly the cell count, which covers the relation
// sizes the mediator's workloads ship; past saturation the estimate is
// clamped to the row count, which is the correct upper bound anyway.
const (
	ndvBits  = 4096
	ndvWords = ndvBits / 64
)

// colStat is the live per-column accumulator. It is only ever touched under
// the owning DB's exclusive mutation lock (Insert holds db.mu), so plain
// fields are safe; readers get value copies via TableStats and Scan under the
// read lock.
type colStat struct {
	sketch   [ndvWords]uint64
	min, max reading
	hasRange bool

	// What Compare does on this column (see total), and whether some value
	// arrived below an earlier one. Both only ever go from false to true.
	sawNumber, sawText, sawNaN bool
	unsorted                   bool
}

// reading is a value with its numeric reading (Datum.numeric), kept so that
// comparing the next value with the range reads only the new one.
type reading struct {
	d   Datum
	n   float64
	num bool
}

func (r *reading) compare(s *reading) int { return compareRead(r.d, r.n, r.num, s.d, s.n, s.num) }

// note folds one value into the accumulator.
func (c *colStat) note(d Datum) {
	h := hashDatum(d) % ndvBits
	c.sketch[h/64] |= 1 << (h % 64)
	r := reading{d: d}
	r.n, r.num = d.numeric()
	switch {
	case !r.num:
		c.sawText = true
	case r.n != r.n:
		c.sawNaN = true
	default:
		c.sawNumber = true
	}
	if !c.hasRange {
		c.min, c.max = r, r
		c.hasRange = true
		return
	}
	// A value above the maximum — every row of a table loaded in order — is
	// not below the minimum.
	switch cmp := r.compare(&c.max); {
	case cmp > 0:
		c.max = r
	case cmp < 0:
		c.unsorted = true
		if r.compare(&c.min) < 0 {
			c.min = r
		}
	}
}

// total reports whether Compare is a total preorder on the values seen so
// far. It is one on numbers and on strings that do not parse as numbers, but
// not on a mix of the two — a numeric-looking string compares numerically
// with its like and lexicographically with the rest, so "10" < "10a" < "9" <
// "10" — and not beside a NaN, which compares equal to every number. Sorting
// and binary search are only meaningful on a total column, so only a total
// column offers an access path or counts as ascending.
func (c *colStat) total() bool { return !c.sawNaN && !(c.sawNumber && c.sawText) }

// estimate returns the linear-counting NDV estimate, clamped to [1, rows].
func (c *colStat) estimate(rows int64) int64 {
	if rows == 0 {
		return 0
	}
	zero := int64(0)
	for _, w := range c.sketch {
		zero += int64(64 - popcount(w))
	}
	var est int64
	if zero == 0 {
		est = rows // sketch saturated; rows is the only bound left
	} else {
		est = int64(math.Round(ndvBits * math.Log(float64(ndvBits)/float64(zero))))
	}
	if est < 1 {
		est = 1
	}
	if est > rows {
		est = rows
	}
	return est
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// hashDatum is FNV-1a over a kind-tagged rendering of the value, so "1" the
// string and 1 the int land in different cells.
func hashDatum(d Datum) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := (uint64(offset) ^ uint64(byte(d.Kind))) * prime
	switch d.Kind {
	case TInt, TFloat:
		v := uint64(d.I) // a float's bits
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(v>>(8*i)))) * prime
		}
	default:
		for i := 0; i < len(d.S); i++ {
			h = (h ^ uint64(d.S[i])) * prime
		}
	}
	return h
}

// ColStats is the optimizer-facing snapshot of one column: the estimated
// number of distinct values and the observed value range. HasRange is false
// for empty tables.
type ColStats struct {
	NDV      int64
	Min, Max Datum
	HasRange bool
}

// TableStats is the optimizer-facing snapshot of one relation. Version is
// the store's mutation counter at snapshot time — the same counter the PR 5
// result cache keys on, so a plan costed at version v and a result cached at
// version v describe the same store state.
type TableStats struct {
	Rows    int64
	Cols    []ColStats // by column position, matching Schema.Columns
	Version int64
}

// ColByName returns the stats for the named column.
func (ts TableStats) ColByName(s Schema, name string) (ColStats, bool) {
	i := s.ColIndex(name)
	if i < 0 || i >= len(ts.Cols) {
		return ColStats{}, false
	}
	return ts.Cols[i], true
}

// TableStats snapshots the named relation's statistics. The maintenance
// cost is one hash probe and two comparisons per column per Insert — paid
// under the mutation lock the Insert already holds — so the stats are always
// current; there is no ANALYZE step.
func (db *DB) TableStats(relation string) (TableStats, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[relation]
	if !ok {
		return TableStats{}, false
	}
	rows := int64(t.rows.n)
	out := TableStats{Rows: rows, Version: db.version.Load()}
	out.Cols = make([]ColStats, len(t.stats))
	for i := range t.stats {
		c := &t.stats[i]
		out.Cols[i] = ColStats{
			NDV:      c.estimate(rows),
			Min:      c.min.d,
			Max:      c.max.d,
			HasRange: c.hasRange,
		}
	}
	return out, true
}
