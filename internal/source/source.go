// Package source is the mediator's catalog of underlying sources. MIX
// integrates two kinds (paper Architecture section): XML documents, which
// support navigation, and relational databases, which accept SQL and return
// cursors but "do not support any form of issuing queries from within a
// context created by queries and visited tuples".
//
// The catalog resolves the document ids that appear in queries (&root1,
// &db1.customer, ...) to sources and reports the capability and provenance
// information the optimizer needs to push work down.
package source

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mix/internal/cache"
	"mix/internal/relstore"
	"mix/internal/sqlexec"
	"mix/internal/wrapper"
	"mix/internal/xtree"
)

// SourceUnavailableError reports that a source endpoint could not be
// reached (or became unreachable mid-scan): a dead lower mediator, an open
// circuit breaker, a dropped connection. The engine propagates it fail-fast
// by default; under the opt-in partial-result policy it is converted into a
// SourceUnavailable annotation element on a truncated result instead.
type SourceUnavailableError struct {
	// Source is the document id of the unreachable source.
	Source string
	// Err is the underlying failure.
	Err error
}

func (e *SourceUnavailableError) Error() string {
	return fmt.Sprintf("source %s unavailable: %v", e.Source, e.Err)
}

func (e *SourceUnavailableError) Unwrap() error { return e.Err }

// Health describes the availability of one source endpoint, in circuit-
// breaker terms: "closed" (healthy), "open" (failing fast), "half-open"
// (probing).
type Health struct {
	State               string
	ConsecutiveFailures int
	LastError           string
}

// HealthReporter is implemented by source documents that track endpoint
// availability (e.g. wire.RemoteDoc, which surfaces its client's circuit
// breaker). Catalog.Health collects them.
type HealthReporter interface {
	Health() Health
}

// ElemCursor delivers the top-level elements of a source document one at a
// time (the mediator-side view of a source cursor).
type ElemCursor interface {
	Next() (*xtree.Node, bool, error)
	Close()
}

// Doc is one resolvable source document.
type Doc interface {
	// RootID is the object id of the document root.
	RootID() string
	// Open returns a cursor over the root's children. opts describes the
	// scan; each document reads the fields it understands and ignores the
	// rest, so the zero value is always a valid, sequential, ordered scan
	// (see ScanOpts).
	Open(opts ScanOpts) (ElemCursor, error)
}

// PathIndexed is implemented by source documents whose tree supports a
// dataguide label-path index (local XML documents). Guide builds the index
// lazily on first use; the tree must be immutable while registered, which
// AddXMLDoc documents already require (navigation hands out the very nodes).
// Wrapper views over relations rebuild fresh nodes per scan and remote
// documents never ship whole trees, so neither implements it.
type PathIndexed interface {
	Guide() *xtree.Dataguide
}

// Descend answers a getD-style descendant probe from n via the dataguide of
// whichever registered document's tree contains n. The second result is
// false when no registered guide covers n (or the path has no indexable
// form) and the caller must walk. Matching is in document order, identical
// to the walk's.
func (c *Catalog) Descend(n *xtree.Node, path []string) ([]*xtree.Node, bool) {
	c.mu.RLock()
	docs := make([]Doc, 0, len(c.docs))
	for _, d := range c.docs {
		docs = append(docs, d)
	}
	c.mu.RUnlock()
	for _, d := range docs {
		pi, ok := d.(PathIndexed)
		if !ok {
			continue
		}
		g := pi.Guide()
		if !g.Contains(n) {
			continue
		}
		return g.Descend(n, path)
	}
	return nil, false
}

// RelBinding records that a document id is a wrapper view of a relation.
type RelBinding struct {
	Server   string
	Relation string
	Schema   relstore.Schema
}

// Catalog maps document ids to sources. It is safe for concurrent use:
// queries resolve documents while in-place-query fallbacks register
// temporary ones.
type Catalog struct {
	mu      sync.RWMutex
	docs    map[string]Doc
	relDBs  map[string]*relstore.DB
	relDocs map[string]RelBinding

	// resCache, when enabled, memoizes relational source results for every
	// SQL shipped through ExecRel (engine rQ subplans and wrapper scans).
	resCache *ResultCache

	// registrations counts catalog mutations (AddXMLDoc/AddRelDB/AddDoc/
	// Alias). Compiled plans resolve sources eagerly, so the plan cache keys
	// on StructVersion; the wire layer folds it into DataVersion so remote
	// node caches also notice re-registered documents.
	registrations atomic.Int64
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		docs:    map[string]Doc{},
		relDBs:  map[string]*relstore.DB{},
		relDocs: map[string]RelBinding{},
	}
}

// AddXMLDoc registers an in-memory XML document under srcID. If the node's
// own id is empty it is set to srcID.
func (c *Catalog) AddXMLDoc(srcID string, root *xtree.Node) {
	if root.ID == "" {
		root.ID = xtree.ID(srcID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs[srcID] = &xmlDoc{id: srcID, root: root}
	c.registrations.Add(1)
}

// AddRelDB registers every relation of db as a virtual document
// "&<server>.<relation>" and the server itself for SQL shipping.
func (c *Catalog) AddRelDB(db *relstore.DB) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.relDBs[db.Name] = db
	for _, rel := range db.Relations() {
		t, _ := db.Table(rel)
		id := wrapper.RootID(db.Name, rel)
		c.docs[id] = &relDoc{id: id, cat: c, db: db, schema: t.Schema}
		c.relDocs[id] = RelBinding{Server: db.Name, Relation: rel, Schema: t.Schema}
	}
	c.registrations.Add(1)
}

// AddDoc registers an arbitrary document implementation — the hook through
// which a MIX mediator can serve as a source to another MIX mediator (paper
// Section 4: "a MIX mediator can be such a source to another MIX mediator").
func (c *Catalog) AddDoc(srcID string, d Doc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.docs[srcID] = d
	c.registrations.Add(1)
}

// Alias makes alias resolve to the same source as target (so a view can call
// the customer relation "&root1" as the paper's figures do).
func (c *Catalog) Alias(alias, target string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[target]
	if !ok {
		return fmt.Errorf("source: alias target %s not registered", target)
	}
	c.docs[alias] = d
	if rb, ok := c.relDocs[target]; ok {
		c.relDocs[alias] = rb
	}
	c.registrations.Add(1)
	return nil
}

// EnableResultCache turns on the source result cache with room for the
// given number of result sets. Call it before serving queries (mediator
// construction); entries < 1 leaves caching off.
func (c *Catalog) EnableResultCache(entries int) {
	if entries < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resCache = NewResultCache(entries)
}

// ResultCacheStats snapshots the result cache's counters; zero when the
// cache is disabled.
func (c *Catalog) ResultCacheStats() cache.Stats {
	c.mu.RLock()
	rc := c.resCache
	c.mu.RUnlock()
	if rc == nil {
		return cache.Stats{}
	}
	return rc.Stats()
}

// ExecRel executes sql against db through the result cache when one is
// enabled, falling back to a direct store execution otherwise. Every
// relational access of the engine and the wrapper scans route through here,
// so the toggle covers them uniformly.
func (c *Catalog) ExecRel(db *relstore.DB, sql string) (relstore.Cursor, error) {
	c.mu.RLock()
	rc := c.resCache
	c.mu.RUnlock()
	if rc == nil {
		cur, _, err := sqlexec.ExecSQL(db, sql)
		return cur, err
	}
	return rc.open(db, sql)
}

// StructVersion counts catalog registrations. Compiled plans resolve their
// sources eagerly, so the plan cache folds it into its keys: registering a
// document (including the in-place-query fallback's temporary context docs)
// invalidates every cached program.
func (c *Catalog) StructVersion() int64 { return c.registrations.Load() }

// DataVersion is the catalog-wide data version the wire server piggybacks
// on its responses: registrations plus every relational server's mutation
// counter, offset so it is never zero. Remote node caches compare it across
// round trips and purge when it moves.
func (c *Catalog) DataVersion() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v := c.registrations.Load() + 1
	for _, db := range c.relDBs {
		v += db.Version()
	}
	return v
}

// Resolve returns the document registered under srcID.
func (c *Catalog) Resolve(srcID string) (Doc, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[srcID]
	if !ok {
		return nil, fmt.Errorf("source: unknown document %s", srcID)
	}
	return d, nil
}

// RelBindingFor reports whether srcID is a wrapper view of a relation.
func (c *Catalog) RelBindingFor(srcID string) (RelBinding, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rb, ok := c.relDocs[srcID]
	return rb, ok
}

// RelDB returns the relational server registered under name.
func (c *Catalog) RelDB(server string) (*relstore.DB, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	db, ok := c.relDBs[server]
	return db, ok
}

// DocIDs lists the registered document ids, sorted (diagnostics).
func (c *Catalog) DocIDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.docs))
	for id := range c.docs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Health reports the availability of every registered source that tracks
// it (HealthReporter implementors — remote mediators with circuit
// breakers). Local in-memory sources are always available and are omitted.
func (c *Catalog) Health() map[string]Health {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]Health{}
	for id, d := range c.docs {
		if hr, ok := d.(HealthReporter); ok {
			out[id] = hr.Health()
		}
		if shr, ok := d.(ShardHealthReporter); ok {
			for mid, h := range shr.ShardHealth() {
				out[id+"/"+mid] = h
			}
		}
	}
	return out
}

// Stats aggregates the transfer counters of every relational server.
func (c *Catalog) Stats() relstore.Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var total relstore.Stats
	for _, db := range c.relDBs {
		s := db.Stats()
		total.TuplesShipped += s.TuplesShipped
		total.QueriesReceived += s.QueriesReceived
	}
	return total
}

// ResetStats zeroes every relational server's counters.
func (c *Catalog) ResetStats() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, db := range c.relDBs {
		db.ResetStats()
	}
}

// ---- XML documents ----

type xmlDoc struct {
	id   string
	root *xtree.Node

	guideOnce sync.Once
	guide     *xtree.Dataguide
}

func (d *xmlDoc) RootID() string { return d.id }

func (d *xmlDoc) Open(ScanOpts) (ElemCursor, error) {
	return &sliceCursor{items: d.root.Children}, nil
}

// Guide builds the document's dataguide on first use (one preorder pass over
// a tree that is already in mediator memory). Re-registering a document under
// the same id creates a fresh xmlDoc — and hence a fresh guide — so a guide
// never outlives the tree snapshot it indexed.
func (d *xmlDoc) Guide() *xtree.Dataguide {
	d.guideOnce.Do(func() { d.guide = xtree.BuildDataguide(d.root) })
	return d.guide
}

type sliceCursor struct {
	items []*xtree.Node
	pos   int
}

func (s *sliceCursor) Next() (*xtree.Node, bool, error) {
	if s.pos >= len(s.items) {
		return nil, false, nil
	}
	n := s.items[s.pos]
	s.pos++
	return n, true, nil
}

func (s *sliceCursor) Close() {}

// ---- relational documents (wrapper views) ----

type relDoc struct {
	id     string
	cat    *Catalog
	db     *relstore.DB
	schema relstore.Schema
}

func (d *relDoc) RootID() string { return d.id }

// Open ships the unconstrained scan "SELECT cols FROM rel ORDER BY key" —
// what source access costs when nothing has been pushed down — and rebuilds
// tuple objects from rows as they are pulled. The scan routes through the
// catalog's result cache when one is enabled.
func (d *relDoc) Open(ScanOpts) (ElemCursor, error) {
	q := scanSQL(d.schema)
	cur, err := d.cat.ExecRel(d.db, q)
	if err != nil {
		return nil, fmt.Errorf("source: scanning %s: %w", d.id, err)
	}
	return &relCursor{schema: d.schema, cur: cur}, nil
}

func scanSQL(s relstore.Schema) string {
	q := "SELECT "
	for i, col := range s.Columns {
		if i > 0 {
			q += ", "
		}
		q += col.Name
	}
	q += " FROM " + s.Relation
	for i, k := range s.Key {
		if i == 0 {
			q += " ORDER BY "
		} else {
			q += ", "
		}
		q += s.Columns[k].Name
	}
	return q
}

type relCursor struct {
	schema  relstore.Schema
	cur     relstore.Cursor
	ordinal int
}

func (r *relCursor) Next() (*xtree.Node, bool, error) {
	row, ok := r.cur.Next()
	if !ok {
		return nil, false, nil
	}
	elem := wrapper.TupleElem(r.schema, row, r.ordinal)
	r.ordinal++
	return elem, true, nil
}

func (r *relCursor) Close() { r.cur.Close() }
