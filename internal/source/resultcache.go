package source

import (
	"strconv"
	"strings"
	"sync"

	"mix/internal/cache"
	"mix/internal/relstore"
	"mix/internal/sqlexec"
	"mix/internal/sqlparse"
)

// maxCachedRows bounds one cached result set. A scan that grows past it is
// delivered but not retained — the cache is for the small-to-medium pushed-
// down results navigation re-demands, not for bulk exports.
const maxCachedRows = 1 << 16

// ResultCache memoizes relational source results at the mediator: identical
// pushed-down SQL against the same store state is answered from memory
// instead of being re-shipped. Keys are the server name, the server's
// mutation version and the normalized SQL text, so any Create/Insert makes
// every prior entry for that server unreachable (versioned invalidation). The
// next open that sees the new version empties the cache: versions only grow,
// so what it held can never be reached again, and left to age out of the LRU
// the dead result sets of up to `entries` store states stay resident beside
// a writer. (Entries of other servers go with them — the same catalog-wide
// granularity as Catalog.DataVersion.)
//
// Only fully-consumed scans populate the cache: a cursor abandoned mid-scan
// caches nothing, preserving the lazy cost model for queries that stop
// early. Cache hits bypass the store entirely — NoteQuery/NoteShipped stay
// untouched, which is exactly the saving the transfer counters measure.
type ResultCache struct {
	lru *cache.LRU[string, [][]relstore.Datum]

	mu       sync.Mutex
	versions map[string]int64 // per server, the version its entries were made under
}

// NewResultCache creates a cache holding at most entries result sets.
func NewResultCache(entries int) *ResultCache {
	return &ResultCache{lru: cache.NewLRU[string, [][]relstore.Datum](entries), versions: map[string]int64{}}
}

// dropSuperseded empties the cache if db has mutated since it was last seen.
func (rc *ResultCache) dropSuperseded(db *relstore.DB) {
	v := db.Version()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if last, ok := rc.versions[db.Name]; ok && last != v {
		rc.lru.Purge()
	}
	rc.versions[db.Name] = v
}

// Stats snapshots the hit/miss/eviction counters.
func (rc *ResultCache) Stats() cache.Stats { return rc.lru.Stats() }

// key builds the versioned cache key for sql against db.
func (rc *ResultCache) key(db *relstore.DB, sql string) string {
	var b strings.Builder
	b.WriteString(db.Name)
	b.WriteByte(0)
	b.WriteString(strconv.FormatInt(db.Version(), 10))
	b.WriteByte(0)
	b.WriteString(normalizeSQL(sql))
	return b.String()
}

// normalizeSQL renders sql canonically (keyword case, spacing, explicit
// aliases) so textual variants of the same query share a cache entry. SQL
// the parser rejects keys on its raw text — execution will report the error
// on the miss path.
func normalizeSQL(sql string) string {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return sql
	}
	return q.String()
}

// open returns a cursor over sql's result, from cache when the same
// normalized query already ran against the same store version.
func (rc *ResultCache) open(db *relstore.DB, sql string) (relstore.Cursor, error) {
	rc.dropSuperseded(db)
	k := rc.key(db, sql)
	if rows, ok := rc.lru.Get(k); ok {
		return &replayCursor{rows: rows}, nil
	}
	cur, _, err := sqlexec.ExecSQL(db, sql)
	if err != nil {
		return nil, err
	}
	return &fillCursor{cache: rc, key: k, cur: cur}, nil
}

// replayCursor delivers a cached result set. It keeps the pipelined
// one-row-at-a-time contract so the engine's laziness is preserved shape-
// for-shape; only the source round trip is gone.
type replayCursor struct {
	rows   [][]relstore.Datum
	pos    int
	closed bool
}

func (r *replayCursor) Next() ([]relstore.Datum, bool) {
	if r.closed || r.pos >= len(r.rows) {
		return nil, false
	}
	row := r.rows[r.pos]
	r.pos++
	return row, true
}

func (r *replayCursor) Close() { r.closed = true }

// fillCursor wraps a live store cursor and records rows as they are pulled.
// The recording is published to the cache at exhaustion — a cursor
// abandoned mid-scan saw a prefix, not the result, and caches nothing.
type fillCursor struct {
	cache     *ResultCache
	key       string
	cur       relstore.Cursor
	buf       [][]relstore.Datum
	exhausted bool
	oversized bool
	closed    bool
}

func (f *fillCursor) Next() ([]relstore.Datum, bool) {
	if f.closed {
		return nil, false
	}
	row, ok := f.cur.Next()
	if !ok {
		if !f.exhausted {
			f.exhausted = true
			if !f.oversized {
				// The key embeds the store version observed at open time,
				// so a mutation that raced this scan lands the entry under
				// the old version — reachable only by lookups that still
				// see that version.
				f.cache.lru.Put(f.key, f.buf)
			}
			f.buf = nil
		}
		return nil, false
	}
	if !f.oversized {
		if len(f.buf) >= maxCachedRows {
			f.oversized = true
			f.buf = nil
		} else {
			f.buf = append(f.buf, row)
		}
	}
	return row, true
}

func (f *fillCursor) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.buf = nil
	f.cur.Close()
}
