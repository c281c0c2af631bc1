package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/shard"
	"mix/internal/wire"
	"mix/internal/workload"
)

// params are what a build of a workload's system depends on.
type params struct {
	seed  int64
	smoke bool
	// oracle builds the reference system instead: the same data behind an
	// in-process, default-config, caches-off, unsharded mediator.
	oracle bool
	// naive turns the oracle's rewriter and SQL pushdown off as well: the
	// reference's reference, which the test compares at smoke scale.
	naive bool
}

// config is the mediator configuration of the oracle builds.
func (p params) config() mix.Config {
	return mix.Config{DisableRewrite: p.naive, DisablePushdown: p.naive}
}

// workloadDef is one workload: how many scripts and clients it runs and how
// its system and scripts are made from the seed.
type workloadDef struct {
	name    string
	remote  bool // sessions go through a wire.Client: the traced pass records a span per call
	writer  bool // a writer inserts before every 8th session
	scripts int  // M: distinct scripts, cycled
	warmup  int
	clients int
	build   func(p params) (system, error)
	gen     func(rng *rand.Rand, m int) []script
}

// system is a workload's program under test, built by set-up.
type system interface {
	// newClient returns closed-loop client i; the client owns its transport.
	newClient(i int) client
	// local runs a script in process, without the wire: the oracle's
	// evaluation and mix.local_session_us.
	local(s *session, sc script)
	// replay re-executes the script's queries stage by stage and returns one
	// answer per transcript mark it can reproduce (hash 0: not reproduced).
	replay(r *replayer, sc script) ([]answer, error)
	// write applies insert batch n and returns how long it took; only
	// rebrowse_writes has a writer.
	write(n int) (time.Duration, error)
	sites() []*site
	// wire totals the client-side wire counters (coordinator to members on fleet).
	wire() wireTotals
	shards() shardTotals
	server() *wire.Server
	// pings times n no-op round trips on the workload's transport, in µs.
	pings(n int) ([]float64, error)
	// close tears the system down and reports anything left behind.
	close() error
}

type client interface {
	run(tr *tracer, i int, sc script) sample
	close()
}

// sessionsPerConn is how many sessions a wire client runs on one connection.
// A browse stops part-way through batch windows, and the read-ahead seats it
// never visited hold server handles that the client API can only give back by
// closing the connection; each pins its whole result document. A client
// therefore reconnects every few sessions, as a person coming back to a
// browser would. It equals the write period of rebrowse_writes on purpose: a
// write purges the client's node cache anyway, so reconnecting there loses
// nothing the cache could have kept.
const sessionsPerConn = 8

func workloads(smoke bool) []workloadDef {
	// M: a whole number of rounds of browse's 11 walk lengths, of
	// rebrowse_writes' 8 hot scripts (and so of its write period), and of
	// nothing in particular on the two workloads whose scripts are all alike.
	m, mHot, mSmall, warm, warmSmall := 110, 112, 40, 30, 20
	if smoke {
		m, mHot, mSmall, warm, warmSmall = 11, 8, 8, 2, 2
	}
	c := 2
	if runtime.NumCPU() < c {
		c = runtime.NumCPU()
	}
	return []workloadDef{
		{name: "browse", remote: true, scripts: m, warmup: warm, clients: c, build: buildBrowse(false), gen: genBrowse},
		{name: "report", scripts: mSmall, warmup: warmSmall, clients: c, build: buildReport, gen: genReport},
		// One client: with two, which sessions find the caches purged depends
		// on how the writer's sessions interleave with the other client's,
		// and the hit rates, and with them every timing, wander between runs.
		{name: "rebrowse_writes", remote: true, scripts: mHot, warmup: warm, writer: true, clients: 1, build: buildBrowse(true), gen: genRebrowse},
		{name: "fleet", scripts: mSmall, warmup: warmSmall, clients: 1, build: buildFleet, gen: genFleet(fleetCustomers(smoke))},
	}
}

// Scripts draw from fixed multisets that the seed only pairs up and orders:
// the work a run does then depends on the seed through the data and the
// pairing, not through how many long scripts a seed happens to draw, so the
// per-session counts of two seeds agree to well within their bounds.

const inplaceQ = `FOR $O IN document(root)/OrderInfo WHERE $O/orders/value < %d RETURN $O`

func genBrowse(rng *rand.Rand, m int) []script {
	ks, ts := make([]int, m), make([]int, m)
	for i := range ks {
		ks[i] = 5 + i%11
		ts[i] = 20000 + i*60000/m
	}
	rng.Shuffle(m, func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	rng.Shuffle(m, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	out := make([]script, m)
	for i := range out {
		out[i] = script{k: ks[i], q: fmt.Sprintf(inplaceQ, ts[i])}
	}
	return out
}

// genRebrowse cycles 8 hot scripts: high shared work for the caches. The
// scripts and their order are fixed, and the seed reaches this workload only
// through the store's values: what a session ships here depends on what the
// sessions before it left in the caches, so a seeded order of just 8 scripts
// would move tuples_shipped_per_session by several percent between seeds.
func genRebrowse(_ *rand.Rand, m int) []script {
	ks := []int{9, 5, 14, 8, 12, 6, 15, 11}
	out := make([]script, m)
	for i := range out {
		j := i % len(ks)
		out[i] = script{k: ks[j], q: fmt.Sprintf(inplaceQ, 20000+j*7500)}
	}
	return out
}

func genReport(rng *rand.Rand, m int) []script {
	out := make([]script, m)
	for i, j := range rng.Perm(m) {
		t := 20000 + j*40000/m
		out[i] = script{q: strings.Replace(workload.Fig12, "20000", fmt.Sprint(t), 1)}
	}
	return out
}

const (
	fleetScanQ  = `FOR $C IN document(&fleet)/customer RETURN $C`
	fleetPointQ = `FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C%06d" RETURN $C`
)

// genFleet spreads the point queries' keys evenly over the n customers.
func genFleet(n int) func(rng *rand.Rand, m int) []script {
	return func(rng *rand.Rand, m int) []script {
		step := n / m
		off := rng.Intn(step)
		out := make([]script, m)
		for i, j := range rng.Perm(m) {
			out[i] = script{q: fmt.Sprintf(fleetPointQ, j*step+off)}
		}
		return out
	}
}

// wireTotals are summed client wire counters.
type wireTotals struct {
	requests, batches, frames     int64
	redials, busy                 int64
	sent, recv                    int64
	ncHits, ncMisses, ncValidated int64
	opBytes                       map[string]int64 // sent+received per protocol op
}

// add folds one client's counters in.
func (w *wireTotals) add(ws wire.WireStats) {
	w.requests += ws.RequestsSent
	w.batches += ws.BatchesFetched
	w.frames += ws.FramesBatched
	w.redials += ws.Redials
	w.busy += ws.BusyRetries
	w.sent += ws.BytesSent
	w.recv += ws.BytesRecv
	w.ncHits += ws.NodeCacheHits
	w.ncMisses += ws.NodeCacheMisses
	w.ncValidated += ws.NodeCacheValidations
	if w.opBytes == nil {
		w.opBytes = map[string]int64{}
	}
	for op, n := range ws.OpBytesSent {
		w.opBytes[op] += n
	}
	for op, n := range ws.OpBytesRecv {
		w.opBytes[op] += n
	}
}

// clone copies the totals, so that adding to the copy leaves w alone.
func (w wireTotals) clone() wireTotals {
	c := w
	c.opBytes = map[string]int64{}
	for op, n := range w.opBytes {
		c.opBytes[op] = n
	}
	return c
}

// minus returns the counts accrued since an earlier snapshot.
func (w wireTotals) minus(o wireTotals) wireTotals {
	d := wireTotals{
		requests: w.requests - o.requests, batches: w.batches - o.batches, frames: w.frames - o.frames,
		redials: w.redials - o.redials, busy: w.busy - o.busy,
		sent: w.sent - o.sent, recv: w.recv - o.recv,
		ncHits: w.ncHits - o.ncHits, ncMisses: w.ncMisses - o.ncMisses, ncValidated: w.ncValidated - o.ncValidated,
		opBytes: map[string]int64{},
	}
	for op, n := range w.opBytes {
		d.opBytes[op] = n - o.opBytes[op]
	}
	return d
}

// shardTotals are the fleet coordinator's routing counters, summed over the
// sessions' mounts, and each member's round trips.
type shardTotals struct {
	scans, pruned    int64
	pointMembers     int64 // members a point query was routed to, summed over sessions
	pointQueries     int64
	memberRoundTrips []int64 // requests each member's connection has carried
}

// pipeServer serves wire sessions in process: every connection is a
// net.Pipe whose ServeConn goroutine is joined at teardown.
type pipeServer struct {
	srv *wire.Server
	wg  sync.WaitGroup
}

func (p *pipeServer) dial() io.ReadWriteCloser {
	cc, sc := net.Pipe()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer sc.Close()
		// ServeConn's error is the client hanging up.
		_ = p.srv.ServeConn(sc)
	}()
	return cc
}

// drain waits for every connection's goroutine and checks the server let go
// of every handle and session.
func (p *pipeServer) drain() error {
	p.wg.Wait()
	if n := p.srv.LiveHandles(); n != 0 {
		return fmt.Errorf("server still holds %d handles", n)
	}
	if st := p.srv.SessionStats(); st.Live != 0 {
		return fmt.Errorf("server still has %d live sessions", st.Live)
	}
	return p.srv.Close()
}

// ---- browse, rebrowse_writes ----

func scaleCustomers(smoke bool) int {
	if smoke {
		return 50
	}
	return 2000
}

// browseSys is one mediator over ScaleDB behind a wire server.
type browseSys struct {
	noShards
	st     *site
	ps     pipeServer
	ccfg   wire.ClientConfig
	nCust  int
	writes bool

	clients []*browseClient
	closed  wireTotals // final counters of the clients' finished connections
}

func buildBrowse(writes bool) func(p params) (system, error) {
	return func(p params) (system, error) {
		cfg := p.config()
		var ccfg wire.ClientConfig
		if writes && !p.oracle {
			// The one workload off the defaults: at the defaults there is no
			// cache for a write to invalidate.
			cfg = mix.Config{PlanCache: 256, SourceCache: 256}
			ccfg = wire.ClientConfig{NodeCache: 4096}
		}
		n := scaleCustomers(p.smoke)
		st := newSite(cfg, workload.ScaleDB("db1", n, 5, p.seed))
		if err := st.med.AliasSource("&root1", "&db1.customer"); err != nil {
			return nil, err
		}
		if err := st.med.AliasSource("&root2", "&db1.orders"); err != nil {
			return nil, err
		}
		if _, err := st.med.DefineView("rootv", workload.Q1); err != nil {
			return nil, err
		}
		b := &browseSys{st: st, ccfg: ccfg, nCust: n, writes: writes}
		b.ps.srv = wire.NewServer(st.med)
		return b, nil
	}
}

// browseScript is the canonical session: open the view, walk k CustRecs
// descending into the customer and the first OrderInfo of each, query in
// place from the k-th, walk the whole answer, release.
func browseScript(s *session, o opener, sc script) {
	root := s.open(o, "rootv")
	s.visit(root)
	rec := s.down(root)
	s.firstAnswer()
	var from node
	for i := 0; rec != nil; i++ {
		s.visit(rec)
		cust := s.down(rec)
		s.walk(cust)
		info := s.right(cust)
		s.walk(info)
		s.release(cust)
		s.release(info)
		if i == sc.k-1 {
			from = rec
			break
		}
		next := s.right(rec)
		s.release(rec)
		rec = next
	}
	s.mark()

	t := time.Now()
	ans := s.queryFrom(from, sc.q)
	s.visit(ans)
	a := s.down(ans)
	s.inplace = time.Since(t)
	for a != nil {
		s.walk(a)
		next := s.right(a)
		s.release(a)
		a = next
	}
	s.mark()
	s.release(ans)
	s.release(from)
	s.release(root)
}

func (b *browseSys) local(s *session, sc script) { browseScript(s, localOpener{b.st.med}, sc) }

func (b *browseSys) replay(r *replayer, sc script) ([]answer, error) {
	if _, err := r.open(b.st, "rootv", false); err != nil {
		return nil, err
	}
	doc, err := b.st.med.Open("rootv")
	if err != nil {
		return nil, err
	}
	defer doc.Close()
	from := doc.Root().Child(sc.k - 1)
	if from == nil {
		return nil, fmt.Errorf("replay: view has no CustRec %d: %v", sc.k-1, doc.Err())
	}
	ans, err := r.queryFrom(b.st, from, sc.q)
	return []answer{{}, ans}, err
}

// writeBatch is the writer's unit: 20 orders rows in one go.
const writeBatch = 20

// write inserts batch n: half its rows go, in turn, to the 15 customers a
// browse can visit, so a cache that serves stale answers fails the oracle
// check, and half are spread over the table. The rows do not depend on the
// seed, which keeps the tuples a session ships comparable between seeds.
func (b *browseSys) write(n int) (time.Duration, error) {
	if !b.writes {
		return 0, nil
	}
	rows := make([][]mix.Datum, writeBatch)
	for i := range rows {
		row := n*writeBatch + i
		cust := row / 2 % 15
		if i%2 == 1 {
			cust = row * 7 % b.nCust
		}
		rows[i] = []mix.Datum{
			mix.Str(fmt.Sprintf("W%05d%03d", n, i)),
			mix.Str(fmt.Sprintf("C%06d", cust)),
			mix.Int(int64(row * 7919 % 100_000)),
		}
	}
	t := time.Now()
	for _, row := range rows {
		if err := b.st.dbs[0].Insert("orders", row); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

func (b *browseSys) sites() []*site       { return []*site{b.st} }
func (b *browseSys) server() *wire.Server { return b.ps.srv }

func (b *browseSys) wire() wireTotals {
	w := b.closed.clone()
	for _, c := range b.clients {
		if c.c != nil {
			w.add(c.c.WireStats())
		}
	}
	return w
}

func (b *browseSys) pings(n int) ([]float64, error) {
	c := wire.NewClientConfig(b.ps.dial(), b.ccfg)
	defer c.Close()
	return timePings(c, n)
}

func timePings(c *wire.Client, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t := time.Now()
		if err := c.Ping(); err != nil {
			return nil, err
		}
		out[i] = us(time.Since(t))
	}
	return out, nil
}

func (b *browseSys) close() error { return b.ps.drain() }

func (b *browseSys) newClient(int) client {
	c := &browseClient{sys: b}
	b.clients = append(b.clients, c)
	return c
}

// browseClient is one closed-loop wire client.
type browseClient struct {
	sys      *browseSys
	s        session
	c        *wire.Client
	sessions int // on the current connection
}

func (bc *browseClient) close() {
	if bc.c == nil {
		return
	}
	bc.sys.closed.add(bc.c.WireStats())
	_ = bc.c.Close() // the transport is an in-process pipe
	bc.c, bc.sessions = nil, 0
}

func (bc *browseClient) run(tr *tracer, i int, sc script) sample {
	if bc.sessions == sessionsPerConn {
		bc.close()
	}
	if bc.c == nil {
		bc.c = wire.NewClientConfig(bc.sys.ps.dial(), bc.sys.ccfg)
	}
	bc.sessions++
	bc.s.begin(tr, i, true)
	browseScript(&bc.s, remoteOpener{bc.c}, sc)
	return bc.s.finish()
}

// noWire and noWriter are the parts of system a workload without a wire
// server or a writer leaves empty.
type noWire struct{}

func (noWire) wire() wireTotals             { return wireTotals{} }
func (noWire) server() *wire.Server         { return nil }
func (noWire) pings(int) ([]float64, error) { return nil, nil }

type noWriter struct{}

func (noWriter) write(int) (time.Duration, error) { return 0, nil }

type noShards struct{}

func (noShards) shards() shardTotals { return shardTotals{} }

// ---- report ----

// reportSys is two in-process mediators: the customer/orders view, and the
// two-server supply federation. There is no wire: engine, sqlexec, relstore
// and sqlgen do the work.
type reportSys struct {
	noWire
	noWriter
	noShards
	view, supply *site
}

// Sizes are calibrated so that each of the session's three parts takes
// 20-50% of it; see README.md.
func buildReport(p params) (system, error) {
	customers, items := 100, 1200
	if p.smoke {
		customers, items = 30, 200
	}
	view := newSite(p.config(), workload.ScaleDB("db1", customers, 5, p.seed))
	if err := view.med.AliasSource("&root1", "&db1.customer"); err != nil {
		return nil, err
	}
	if err := view.med.AliasSource("&root2", "&db1.orders"); err != nil {
		return nil, err
	}
	if _, err := view.med.DefineView("rootv", workload.Q1); err != nil {
		return nil, err
	}
	db1, db2 := workload.SupplyDBs(items, 50, 3, p.seed)
	return &reportSys{view: view, supply: newSite(p.config(), db1, db2)}, nil
}

// local is the report session: a composed query pushed as one SQL join, the
// whole view by group-by navigation, and a cross-server join evaluated at
// the mediator, each drained.
func (r *reportSys) local(s *session, sc script) {
	view, supply := localOpener{r.view.med}, localOpener{r.supply.med}
	s.drain(s.query(view, sc.q))
	s.drain(s.open(view, "rootv"))
	s.drain(s.query(supply, workload.QSupply))
}

func (r *reportSys) replay(rp *replayer, sc script) ([]answer, error) {
	a, err := rp.query(r.view, sc.q)
	if err != nil {
		return nil, err
	}
	b, err := rp.open(r.view, "rootv", true)
	if err != nil {
		return nil, err
	}
	c, err := rp.query(r.supply, workload.QSupply)
	return []answer{a, b, c}, err
}

func (r *reportSys) sites() []*site       { return []*site{r.view, r.supply} }
func (r *reportSys) newClient(int) client { return &localClient{sys: r} }
func (r *reportSys) close() error         { return nil }

// localClient runs sessions in process.
type localClient struct {
	sys system
	s   session
}

func (c *localClient) run(tr *tracer, i int, sc script) sample {
	c.s.begin(tr, i, false)
	c.sys.local(&c.s, sc)
	return c.s.finish()
}

func (c *localClient) close() {}

// ---- fleet ----

func fleetCustomers(smoke bool) int {
	if smoke {
		return 48
	}
	return 240
}

const fleetMembers = 3

// fleetSys is a coordinator over three member mediators, each behind its own
// wire server and reached over a connection with 1 ms of injected latency per
// I/O operation. The members, their servers and the connections are set up
// once; every session mounts the fleet on a fresh coordinator, as one
// `mixql -shards` invocation does, because a member's open view memoizes its
// children: on a standing mount only the first session would reach a source.
type fleetSys struct {
	noWriter
	spec    shard.Spec
	members []*fleetMember
	stats   shardTotals

	// oracle: the unsharded table behind one default mediator.
	whole *site
}

type fleetMember struct {
	st *site
	ps pipeServer
	c  *wire.Client
}

// fleetConfig is what `mixql -shards` gives its coordinator.
var fleetConfig = mix.Config{Parallelism: fleetMembers + 1, Prefetch: true}

func buildFleet(p params) (system, error) {
	n := fleetCustomers(p.smoke)
	if p.oracle {
		whole := newSite(p.config(), workload.ScaleDB("db1", n, 1, p.seed))
		if err := whole.med.AliasSource("&fleet", "&db1.customer"); err != nil {
			return nil, err
		}
		return &fleetSys{whole: whole}, nil
	}
	f := &fleetSys{spec: shard.Spec{Mode: shard.ModeHash, N: fleetMembers, KeyPath: []string{"customer", "id"}}}
	for i := 0; i < fleetMembers; i++ {
		m := &fleetMember{st: newSite(mix.Config{}, workload.ShardScaleDB("db1", n, 1, p.seed, f.spec, i))}
		if _, err := m.st.med.DefineView("custs", "FOR $C IN document(&db1.customer)/customer RETURN $C"); err != nil {
			return nil, err
		}
		m.ps.srv = wire.NewServer(m.st.med)
		conn := faultnet.Wrap(m.ps.dial(), faultnet.Config{Seed: p.seed, LatencyProb: 1, Latency: time.Millisecond})
		m.c = wire.NewClientConfig(conn, wire.ClientConfig{})
		f.members = append(f.members, m)
	}
	return f, nil
}

// local is the fleet session. Against the real fleet it mounts the members
// on a fresh coordinator first; the oracle runs the same two queries over
// the unsharded table.
func (f *fleetSys) local(s *session, sc script) {
	if f.whole != nil {
		o := localOpener{f.whole.med}
		s.drain(s.query(o, fleetScanQ))
		s.drain(s.query(o, sc.q))
		return
	}
	m, err := f.mount(s)
	if err != nil {
		s.err = err
		return
	}
	defer m.unmount(s)
	o := localOpener{m.st.med}
	s.drain(s.query(o, fleetScanQ))
	afterScan := m.doc.Stats()
	s.drain(s.query(o, sc.q))
	f.note(afterScan, m.doc.Stats())
}

// mounted is one session's coordinator over the members' freshly opened views.
type mounted struct {
	st    *site
	doc   *shard.Doc
	roots []*wire.RemoteNode
}

func (f *fleetSys) mount(s *session) (*mounted, error) {
	id := s.tr.begin("shard.mount", s.script, s.root)
	t := time.Now()
	defer func() {
		s.calls += time.Since(t)
		s.tr.end(id)
	}()
	m := &mounted{st: newSite(fleetConfig)}
	var members []shard.Member
	for i, fm := range f.members {
		root, err := fm.c.Open("custs")
		if err != nil {
			m.unmount(s)
			return nil, err
		}
		m.roots = append(m.roots, root)
		name := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: name, Doc: wire.NewRemoteDoc("&fleet/"+name, root)})
	}
	doc, err := m.st.med.AddShardedSource("&fleet", f.spec, members, shard.Config{})
	if err != nil {
		m.unmount(s)
		return nil, err
	}
	m.doc = doc
	return m, nil
}

func (m *mounted) unmount(s *session) {
	for _, root := range m.roots {
		if err := root.Release(); err != nil && s.err == nil {
			s.err = err
		}
	}
}

// note accumulates one session's routing counters: a session's coordinator
// is dropped with the session.
func (f *fleetSys) note(afterScan, end shard.Stats) {
	f.stats.scans += end.Scans
	f.stats.pruned += end.Pruned
	for id, n := range end.Routes {
		if n > afterScan.Routes[id] {
			f.stats.pointMembers++
		}
	}
	f.stats.pointQueries++
}

func (f *fleetSys) replay(r *replayer, sc script) ([]answer, error) {
	var s session
	s.begin(nil, r.script, false)
	m, err := f.mount(&s)
	if err != nil {
		return nil, err
	}
	defer m.unmount(&s)
	scan, err := r.query(m.st, fleetScanQ)
	if err != nil {
		return nil, err
	}
	point, err := r.query(m.st, sc.q)
	return []answer{scan, point}, err
}

// sites are the mediators whose stores ship tuples: the members.
func (f *fleetSys) sites() []*site {
	if f.whole != nil {
		return []*site{f.whole}
	}
	out := make([]*site, len(f.members))
	for i, m := range f.members {
		out[i] = m.st
	}
	return out
}

func (f *fleetSys) wire() wireTotals {
	var w wireTotals
	for _, m := range f.members {
		w.add(m.c.WireStats())
	}
	return w
}

func (f *fleetSys) shards() shardTotals {
	st := f.stats
	for _, m := range f.members {
		st.memberRoundTrips = append(st.memberRoundTrips, m.c.WireStats().RequestsSent)
	}
	return st
}

// server is the first member's: the fleet's server-side session counters are
// the same on every member.
func (f *fleetSys) server() *wire.Server {
	if len(f.members) == 0 {
		return nil
	}
	return f.members[0].ps.srv
}

func (f *fleetSys) pings(n int) ([]float64, error) {
	if len(f.members) == 0 {
		return nil, nil
	}
	return timePings(f.members[0].c, n)
}

func (f *fleetSys) newClient(int) client { return &localClient{sys: f} }

func (f *fleetSys) close() error {
	for _, m := range f.members {
		_ = m.c.Close() // the transport is an in-process pipe
	}
	for i, m := range f.members {
		if err := m.ps.drain(); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}
