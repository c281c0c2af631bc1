package source

import (
	"mix/internal/relstore"
	"mix/internal/sqlexec"
	"mix/internal/sqlparse"
)

// SizeHinted is implemented by source documents that can report (an estimate
// of) their top-level element count without being scanned: local XML trees
// know their children, wrapper views ask the store's statistics. Remote
// documents do not implement it, and the estimator falls back to its
// default.
type SizeHinted interface {
	EstRows() (int64, bool)
}

func (d *xmlDoc) EstRows() (int64, bool) {
	return int64(len(d.root.Children)), true
}

func (d *relDoc) EstRows() (int64, bool) {
	ts, ok := d.db.TableStats(d.schema.Relation)
	if !ok {
		return 0, false
	}
	return ts.Rows, true
}

// DocRows answers the optimizer's "how big is this source?" for a document
// id: whatever the document itself can report. The second result is false
// when it cannot.
func (c *Catalog) DocRows(srcID string) (int64, bool) {
	c.mu.RLock()
	d := c.docs[srcID]
	c.mu.RUnlock()
	if sh, ok := d.(SizeHinted); ok {
		return sh.EstRows()
	}
	return 0, false
}

// RelStats returns the live statistics and schema of a relation on a
// registered server — the per-column distinct/min/max the estimator turns
// into selectivities. ok is false when the server or relation is unknown.
func (c *Catalog) RelStats(server, relation string) (relstore.TableStats, relstore.Schema, bool) {
	db, ok := c.RelDB(server)
	if !ok {
		return relstore.TableStats{}, relstore.Schema{}, false
	}
	t, ok := db.Table(relation)
	if !ok {
		return relstore.TableStats{}, relstore.Schema{}, false
	}
	ts, ok := db.TableStats(relation)
	if !ok {
		return relstore.TableStats{}, relstore.Schema{}, false
	}
	return ts, t.Schema, true
}

// AnswerFromScanCache tries to answer sql against db without contacting the
// server: when the result cache already holds the unconstrained ordered scan
// of the query's (single) relation at the store's current version, the
// pushed-down query is just a filter + projection over rows the mediator
// already has — zero round trips, zero tuples shipped, versus sel·N fresh
// tuples for re-shipping the pushdown. The cost model makes that choice
// unconditionally in the cache's favor, so no estimate is consulted here.
//
// The substitution is only taken when it is provably answer-identical to
// executing sql at the source: one FROM entry, no DISTINCT, ORDER BY exactly
// the relation's key (the order both the cached scan and the generated
// pushdowns use — sqlexec sorts stably, so filtering the sorted scan equals
// sorting the filtered subset), and every predicate a comparison over the
// relation's columns, evaluated by sqlexec's own compiler.
func (c *Catalog) AnswerFromScanCache(db *relstore.DB, sql string) (relstore.Cursor, bool) {
	c.mu.RLock()
	rc := c.resCache
	c.mu.RUnlock()
	if rc == nil {
		return nil, false
	}
	// An exact cached result for this SQL is better still — leave it to the
	// ExecRel replay path.
	if _, ok := rc.lru.Peek(rc.key(db, sql)); ok {
		return nil, false
	}
	q, err := sqlparse.Parse(sql)
	if err != nil || len(q.From) != 1 || q.Distinct {
		return nil, false
	}
	t, ok := db.Table(q.From[0].Relation)
	if !ok {
		return nil, false
	}
	schema := t.Schema
	if len(q.OrderBy) != len(schema.Key) {
		return nil, false
	}
	alias := q.From[0].Alias
	colIdx := func(c sqlparse.ColRef) int {
		if c.Qualifier != "" && c.Qualifier != alias {
			return -1
		}
		return schema.ColIndex(c.Column)
	}
	for i, k := range schema.Key {
		if colIdx(q.OrderBy[i]) != k {
			return nil, false
		}
	}
	rows, ok := rc.lru.Peek(rc.key(db, scanSQL(schema)))
	if !ok {
		return nil, false
	}
	// Compile predicates and the projection against the scan's column order
	// (all schema columns, by position).
	var filters []func([]relstore.Datum) bool
	for _, p := range q.Where {
		f, err := sqlexec.CompilePred(schema, alias, p)
		if err != nil {
			return nil, false
		}
		filters = append(filters, f)
	}
	proj := make([]int, len(q.Cols))
	for i, col := range q.Cols {
		idx := colIdx(col)
		if idx < 0 {
			return nil, false
		}
		proj[i] = idx
	}
	return &scanCacheCursor{rows: rows, filters: filters, proj: proj}, true
}

// scanCacheCursor filters and projects a cached scan. Like the replay
// cursor it bypasses NoteQuery/NoteShipped — nothing crossed the wire.
type scanCacheCursor struct {
	rows    [][]relstore.Datum
	filters []func([]relstore.Datum) bool
	proj    []int
	pos     int
	closed  bool
}

func (s *scanCacheCursor) Next() ([]relstore.Datum, bool) {
outer:
	for !s.closed && s.pos < len(s.rows) {
		row := s.rows[s.pos]
		s.pos++
		for _, f := range s.filters {
			if !f(row) {
				continue outer
			}
		}
		out := make([]relstore.Datum, len(s.proj))
		for i, idx := range s.proj {
			out[i] = row[idx]
		}
		return out, true
	}
	return nil, false
}

func (s *scanCacheCursor) Close() { s.closed = true }
