// Corpus for the lockorder check: inconsistent pairwise acquisition orders
// (direct and through in-package calls) are flagged; consistent
// hierarchies, non-overlapping critical sections and goroutine hand-offs
// are not.
package a

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// Direct 2-cycle: ab takes A.mu then B.mu, ba takes them in the opposite
// order. Both witness sites are reported.
func ab(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want "acquires B.mu while holding A.mu"
	b.mu.Unlock()
	a.mu.Unlock()
}

func ba(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want "acquires A.mu while holding B.mu"
	a.mu.Unlock()
	b.mu.Unlock()
}

type Store struct {
	mu sync.Mutex
	n  int
}

type Index struct {
	mu sync.Mutex
	m  map[int]bool
}

// Interprocedural 2-cycle: the edge is created at the call site, through the
// callee's acquire summary.
func (s *Store) insertIndexed(i *Index) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	i.add(s.n) // want "acquires Index.mu while holding Store.mu"
}

func (i *Index) add(k int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.m[k] = true
}

func (i *Index) compact(s *Store) {
	i.mu.Lock()
	defer i.mu.Unlock()
	_ = s.size() // want "acquires Store.mu while holding Index.mu"
}

func (s *Store) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

type C struct{ mu sync.Mutex }
type D struct{ mu sync.Mutex }

// Clean: a consistent C-before-D hierarchy across every path is a DAG.
func cdOne(c *C, d *D) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
}

func cdTwo(c *C, d *D) {
	c.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Unlock()
}

// Clean: the critical sections never overlap, so no edge exists in either
// direction even though the textual order differs between the two functions.
func disjointOne(c *C, d *D) {
	c.mu.Lock()
	c.mu.Unlock()
	d.mu.Lock()
	d.mu.Unlock()
}

func disjointTwo(c *C, d *D) {
	d.mu.Lock()
	d.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

type C2 struct{ mu sync.Mutex }
type D2 struct{ mu sync.Mutex }

// Clean: a lock taken inside a branch does not leak past the join point, so
// takeD2 holds nothing when it takes D2.mu.
func takeD2(c *C2, d *D2, cond bool) {
	if cond {
		c.mu.Lock()
		c.mu.Unlock()
	}
	d.mu.Lock()
	d.mu.Unlock()
}

func d2ThenC2(c *C2, d *D2) {
	d.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	d.mu.Unlock()
}

type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }

// Clean: a launched goroutine does not inherit the launcher's held-set, so
// spawning under E.mu a body that takes F.mu is not an E-before-F edge.
func spawn(e *E, f *F, done chan struct{}) {
	e.mu.Lock()
	go func() {
		f.mu.Lock()
		f.mu.Unlock()
		close(done)
	}()
	e.mu.Unlock()
}

func fThenE(e *E, f *F) {
	f.mu.Lock()
	e.mu.Lock()
	e.mu.Unlock()
	f.mu.Unlock()
}

type Coord struct {
	mu    sync.Mutex
	scans int
}

type Shard struct {
	mu   sync.Mutex
	open bool
}

// Clean: the shard fan-out discipline — the coordinator notes its stats
// under Coord.mu and releases it before touching any member, and a member
// never calls back up into the coordinator while holding its own lock.
func (c *Coord) scan(members []*Shard) {
	c.mu.Lock()
	c.scans++
	c.mu.Unlock()
	for _, m := range members {
		m.mu.Lock()
		m.open = true
		m.mu.Unlock()
	}
}

// Inversion: routing under the coordinator lock while a member's health
// probe calls back up into the coordinator — the deadlock the fan-out
// avoids by keeping stats updates lock-local.
func (c *Coord) route(m *Shard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.probe() // want "acquires Shard.mu while holding Coord.mu"
}

func (m *Shard) probe() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.open = true
}

func (m *Shard) report(c *Coord) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c.bump() // want "acquires Coord.mu while holding Shard.mu"
}

func (c *Coord) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scans++
}
