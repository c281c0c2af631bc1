package shard

import (
	"errors"
	"fmt"
	"sync"

	"mix/internal/cost"
	"mix/internal/source"
	"mix/internal/xtree"
)

// DefaultWindow is the per-member read-ahead window of a parallel fan-out:
// how many elements a member's pump may run ahead of the merge before it
// blocks (backpressure).
const DefaultWindow = 16

// Member is one shard of a coordinator document: a partition id and the
// document serving that partition's children (typically a wire.RemoteDoc
// over a lower mixserve, or a local doc in tests).
type Member struct {
	ID  string
	Doc source.Doc
}

// Config tunes a coordinator document; the zero value is usable.
type Config struct {
	// Window is the per-member read-ahead window in parallel mode; 0 means
	// DefaultWindow.
	Window int
}

// Stats counts how scans were routed across the fleet.
type Stats struct {
	// Scans counts Open calls.
	Scans int64
	// Pruned counts scans whose key constraints let the coordinator skip
	// at least one member.
	Pruned int64
	// Routes counts, per member id, the scans routed to that member.
	Routes map[string]int64
}

// Doc is a sharded virtual view: a source document whose top-level
// children are partitioned across member documents by a Spec. It reads every
// field of the source.ScanOpts the engine hands it — order observability,
// pushed key constraints, parallelism — to prune members and pick a merge
// strategy.
type Doc struct {
	id      string
	spec    Spec
	members []Member
	window  int

	mu     sync.Mutex
	scans  int64
	pruned int64
	routes map[string]int64
}

// NewDoc builds a coordinator over members, which must line up with the
// spec: member i serves the children the spec assigns to shard i.
func NewDoc(id string, spec Spec, members []Member, cfg Config) (*Doc, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(members) != spec.Shards() {
		return nil, fmt.Errorf("shard: %s: spec addresses %d shards, got %d members", id, spec.Shards(), len(members))
	}
	seen := map[string]bool{}
	for _, m := range members {
		if m.ID == "" || m.Doc == nil {
			return nil, fmt.Errorf("shard: %s: members need an id and a doc", id)
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("shard: %s: duplicate member id %s", id, m.ID)
		}
		seen[m.ID] = true
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultWindow
	}
	return &Doc{
		id: id, spec: spec, members: members, window: window,
		routes: map[string]int64{},
	}, nil
}

// RootID is the coordinator document's object id.
func (d *Doc) RootID() string { return d.id }

// Spec returns the partitioning spec.
func (d *Doc) Spec() Spec { return d.spec }

// ShardCount reports the fleet size to the cost model.
func (d *Doc) ShardCount() int { return len(d.members) }

// Open fans the scan out across the members the key constraints cannot
// rule out. With opts.Parallel (and a fan-out the cost model predicts to
// win) every member gets a pump: a source.OpenAhead producer with a bounded
// window; otherwise members are drained on the caller's goroutine. Ordered
// scans k-way merge the member streams on the partition key, so the global
// document order is reproduced exactly; unordered scans interleave
// deterministically (round-robin), never by arrival timing. The zero
// ScanOpts is the conservative scan for callers without scan context:
// sequential, ordered, every member.
func (d *Doc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	live := d.route(opts.Keys)
	d.noteScan(live)
	c := &fanCursor{
		d:       d,
		ordered: !opts.Unordered,
		members: live,
		curs:    make([]source.ElemCursor, len(live)),
		state:   make([]supState, len(live)),
		keys:    make([]string, len(live)),
		heads:   make([]*xtree.Node, len(live)),
	}
	// Members see the execution knobs only: their own children are one
	// ordered partition, and the key constraints were spent on routing.
	mopts := source.ScanOpts{BatchSize: opts.BatchSize, Prefetch: opts.Prefetch, Parallel: opts.Parallel}
	pump := opts.Parallel && len(live) > 1 && d.fanOutWins(len(live), opts.BatchSize)
	if pump {
		// The pump itself is the read-ahead, so the member is opened on it
		// synchronously rather than behind another async layer.
		mopts.Parallel = false
	}
	for i, m := range live {
		open := func() (source.ElemCursor, error) { return m.Doc.Open(mopts) }
		if pump {
			c.curs[i] = source.OpenAhead(open, d.window)
		} else {
			c.curs[i] = &lazyCursor{open: open}
		}
	}
	return c, nil
}

// route returns the members whose partition can satisfy every key
// constraint that speaks about the partition key. Constraints on other
// paths are ignored; two constraints pinning different shards mean no
// member can match.
func (d *Doc) route(keys []source.KeyConstraint) []Member {
	target := -1
	for _, k := range keys {
		if !pathEq(k.Path, d.spec.KeyPath) {
			continue
		}
		s := d.spec.ShardOf(k.Value)
		if target == -1 {
			target = s
		} else if target != s {
			return nil
		}
	}
	if target == -1 {
		return d.members
	}
	return d.members[target : target+1]
}

func pathEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fanOutWins consults the cost model: spawning k pumps only pays when the
// per-member critical path undercuts draining one merged stream.
func (d *Doc) fanOutWins(k, batch int) bool {
	rows := -1.0
	if n, ok := d.EstRows(); ok {
		rows = float64(n)
	}
	return cost.FanOutWins(rows, k, batch)
}

func (d *Doc) noteScan(live []Member) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.scans++
	if len(live) < len(d.members) {
		d.pruned++
	}
	for _, m := range live {
		d.routes[m.ID]++
	}
}

// Stats snapshots the routing counters.
func (d *Doc) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	routes := make(map[string]int64, len(d.routes))
	for id, n := range d.routes {
		routes[id] = n
	}
	return Stats{Scans: d.scans, Pruned: d.pruned, Routes: routes}
}

// EstRows sums the members' size hints; unknown when any member has none.
func (d *Doc) EstRows() (int64, bool) {
	var total int64
	for _, m := range d.members {
		sh, ok := m.Doc.(source.SizeHinted)
		if !ok {
			return 0, false
		}
		n, ok := sh.EstRows()
		if !ok {
			return 0, false
		}
		total += n
	}
	return total, true
}

// Health reports the worst member state, so one open breaker anywhere in
// the fleet surfaces on the coordinator id.
func (d *Doc) Health() source.Health {
	worst := source.Health{State: "closed"}
	for _, m := range d.members {
		hr, ok := m.Doc.(source.HealthReporter)
		if !ok {
			continue
		}
		if h := hr.Health(); stateRank(h.State) > stateRank(worst.State) {
			worst = h
		}
	}
	return worst
}

func stateRank(s string) int {
	switch s {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// ShardHealth reports per-member availability.
func (d *Doc) ShardHealth() map[string]source.Health {
	out := map[string]source.Health{}
	for _, m := range d.members {
		if hr, ok := m.Doc.(source.HealthReporter); ok {
			out[m.ID] = hr.Health()
		}
	}
	return out
}

// ShardTransferStats reports per-member wire counters.
func (d *Doc) ShardTransferStats() map[string]source.TransferStats {
	out := map[string]source.TransferStats{}
	for _, m := range d.members {
		if tr, ok := m.Doc.(source.TransferReporter); ok {
			out[m.ID] = tr.TransferStats()
		}
	}
	return out
}

// memberErr qualifies a member failure with the member's identity. An
// availability failure stays typed (so the partial-result policy can
// annotate exactly which shard dropped out); anything else is terminal.
func (d *Doc) memberErr(m Member, err error) error {
	var sue *source.SourceUnavailableError
	if errors.As(err, &sue) {
		return &source.SourceUnavailableError{Source: d.id + "[" + m.ID + "]", Err: err}
	}
	return fmt.Errorf("shard: member %s of %s: %w", m.ID, d.id, err)
}

type supState int

const (
	supPending supState = iota // no head buffered yet
	supHave                    // heads[i] holds the next element
	supDone                    // exhausted or dead
)

// lazyCursor drains a member on the consumer's goroutine: it opens the
// member on the first pull and closes it as soon as it ends.
type lazyCursor struct {
	open   func() (source.ElemCursor, error)
	cur    source.ElemCursor
	closed bool
}

func (s *lazyCursor) Next() (*xtree.Node, bool, error) {
	if s.closed {
		return nil, false, nil
	}
	if s.cur == nil {
		cur, err := s.open()
		if err != nil {
			s.closed = true
			return nil, false, err
		}
		s.cur = cur
	}
	n, ok, err := s.cur.Next()
	if err != nil || !ok {
		s.Close()
	}
	return n, ok, err
}

func (s *lazyCursor) Close() {
	if !s.closed && s.cur != nil {
		s.cur.Close()
	}
	s.closed = true
}

// fanCursor merges the member streams. It implements
// source.ResilientCursor: a member lost mid-scan surfaces once as a typed
// error, then the merge keeps delivering the survivors' elements.
type fanCursor struct {
	d       *Doc
	ordered bool
	members []Member            // members[i] names curs[i] in errors
	curs    []source.ElemCursor // one per live member: a pump or a lazyCursor
	state   []supState
	heads   []*xtree.Node
	keys    []string // normalized merge key per buffered head
	rr      int
	failed  error
}

// Resilient marks the cursor as able to continue past member loss.
func (c *fanCursor) Resilient() {}

// Async marks the cursor as owning pump goroutines, so an abandoned parallel
// execution force-closes it.
func (c *fanCursor) Async() {}

func (c *fanCursor) Next() (*xtree.Node, bool, error) {
	if c.failed != nil {
		return nil, false, c.failed
	}
	if c.ordered {
		return c.nextOrdered()
	}
	return c.nextRR()
}

// nextOrdered refills every pending head, then emits the minimum-key head.
// Per-member streams are already globally ordered (each member ships an
// ordered subset of one totally-ordered child list), so the k-way merge
// reproduces the unsharded document order exactly.
func (c *fanCursor) nextOrdered() (*xtree.Node, bool, error) {
	for i := range c.curs {
		for c.state[i] == supPending {
			n, ok, err := c.curs[i].Next()
			if err != nil {
				return nil, false, c.supFailed(i, err)
			}
			if !ok {
				c.state[i] = supDone
				break
			}
			c.heads[i] = n
			c.keys[i] = NormalizeKey(KeyOf(n, c.d.spec.KeyPath))
			c.state[i] = supHave
		}
	}
	min := -1
	for i := range c.curs {
		if c.state[i] != supHave {
			continue
		}
		if min == -1 || c.keys[i] < c.keys[min] {
			min = i
		}
	}
	if min == -1 {
		return nil, false, nil
	}
	n := c.heads[min]
	c.heads[min] = nil
	c.state[min] = supPending
	return n, true, nil
}

// nextRR interleaves the member streams round-robin — deterministic for a
// given fleet content, independent of pump timing.
func (c *fanCursor) nextRR() (*xtree.Node, bool, error) {
	for scanned := 0; scanned < len(c.curs); {
		i := c.rr % len(c.curs)
		if c.state[i] == supDone {
			c.rr++
			scanned++
			continue
		}
		n, ok, err := c.curs[i].Next()
		if err != nil {
			return nil, false, c.supFailed(i, err)
		}
		if !ok {
			c.state[i] = supDone
			c.rr++
			scanned++
			continue
		}
		c.rr++
		return n, true, nil
	}
	return nil, false, nil
}

// supFailed marks member i dead and qualifies its error. Availability
// failures leave the cursor usable (resilience); anything else poisons it.
func (c *fanCursor) supFailed(i int, err error) error {
	c.state[i] = supDone
	werr := c.d.memberErr(c.members[i], err)
	var sue *source.SourceUnavailableError
	if !errors.As(werr, &sue) {
		c.failed = werr
	}
	return werr
}

// Close cancels every pump before joining any, so their last member pulls
// overlap, then closes the sequential cursors. Idempotent.
func (c *fanCursor) Close() {
	for _, cur := range c.curs {
		if p, ok := cur.(interface{ Cancel() }); ok {
			p.Cancel()
		}
	}
	for _, cur := range c.curs {
		cur.Close()
	}
}
