package wire_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/relstore"
	"mix/internal/source"
	"mix/internal/wire"
	"mix/internal/workload"
)

// paperMediator builds the stock test mediator (paper DB + rootv view).
func paperMediator(t *testing.T) *mix.Mediator {
	t.Helper()
	return rootvMediator(t, workload.PaperDB())
}

// rootvMediator serves the Q1 view rootv over a customers/orders database.
func rootvMediator(t *testing.T, db *relstore.DB) *mix.Mediator {
	t.Helper()
	med := mix.New()
	med.AddRelationalSource(db)
	if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	return med
}

// endpoint simulates a redialable server endpoint over net.Pipe: each dial
// spawns a fresh server session, optionally behind a fault injector on the
// first connection only (redials are clean, modeling a recovered network).
type endpoint struct {
	srv *wire.Server

	mu        sync.Mutex
	down      bool
	faultOnce *faultnet.Config
	dials     int
	last      io.Closer
}

func newEndpoint(med *mix.Mediator) *endpoint { return &endpoint{srv: wire.NewServer(med)} }

func (e *endpoint) dial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.down {
		return nil, errors.New("endpoint down")
	}
	e.dials++
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		_ = e.srv.ServeConn(server)
	}()
	var conn io.ReadWriteCloser = client
	if e.faultOnce != nil {
		conn = faultnet.Wrap(client, *e.faultOnce)
		e.faultOnce = nil
	}
	e.last = conn
	return conn, nil
}

func (e *endpoint) setDown(down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.down = down
}

// killConn severs the live connection (simulated network drop).
func (e *endpoint) killConn() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.last != nil {
		_ = e.last.Close()
	}
}

func (e *endpoint) dialCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dials
}

// fastCfg keeps tests snappy: real deadlines, tiny backoff.
func fastCfg() wire.ClientConfig {
	return wire.ClientConfig{
		OpTimeout:   2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
	}
}

func dialEndpoint(t *testing.T, e *endpoint, cfg wire.ClientConfig) *wire.Client {
	t.Helper()
	if cfg.Redial == nil {
		cfg.Redial = func() (io.ReadWriteCloser, error) { return e.dial() }
	}
	conn, err := e.dial()
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClientConfig(conn, cfg)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestFaultLatencyUnderDeadline: injected latency below the op deadline is
// absorbed; the whole session works, slower but correct.
func TestFaultLatencyUnderDeadline(t *testing.T) {
	e := newEndpoint(paperMediator(t))
	e.faultOnce = &faultnet.Config{LatencyProb: 1, Latency: 2 * time.Millisecond}
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down()
	if err != nil || rec.Label() != "CustRec" {
		t.Fatalf("d(root) under latency: %v %v", rec, err)
	}
	if _, err := rec.Materialize(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultOpTimeout: a hung peer cannot hang the client — the op deadline
// fires, the error is a typed timeout, and a connection with no redial
// reports ErrConnectionBroken afterwards.
func TestFaultOpTimeout(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close() // nobody serves: reads/writes block until deadline
	c := wire.NewClientConfig(client, wire.ClientConfig{
		OpTimeout:        30 * time.Millisecond,
		MaxRetries:       -1,
		BreakerThreshold: -1,
	})
	defer c.Close()

	start := time.Now()
	err := c.Ping()
	if err == nil {
		t.Fatal("ping against a hung peer must fail")
	}
	var te *wire.TransportError
	if !errors.As(err, &te) || !te.Timeout() {
		t.Fatalf("want transport timeout, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the op")
	}
	if err := c.Ping(); !errors.Is(err, wire.ErrConnectionBroken) {
		t.Fatalf("broken connection without redial: got %v", err)
	}
}

// TestFaultMidStreamCloseRecovers: the connection dies mid-session;
// idempotent ops retry through a redial and navigation replays its recorded
// path — the session continues with correct answers and zero client-visible
// failures.
func TestFaultMidStreamCloseRecovers(t *testing.T) {
	e := newEndpoint(paperMediator(t))
	// open + down move 108 bytes and a ping exchange 23, so the cut lands
	// around the 17th of the 40 pings below.
	e.faultOnce = &faultnet.Config{CloseAfterBytes: 500}
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down()
	if err != nil || rec.Label() != "CustRec" {
		t.Fatalf("d(root): %v %v", rec, err)
	}
	// Burn through the byte budget; pings retry transparently across the
	// injected connection loss.
	for i := 0; i < 40; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	if c.Redials() == 0 {
		t.Fatal("the injected close never forced a redial")
	}
	// rec's handle died with the first session; navigation replays its
	// path (open rootv, down) on the new connection.
	cust, err := rec.Down()
	if err != nil || cust.Label() != "customer" {
		t.Fatalf("post-recovery navigation: %v %v", cust, err)
	}
}

// TestFaultGarbledFrame: corrupted frames yield a clean typed error with no
// redial, and a correct recovered result when redial is available.
func TestFaultGarbledFrame(t *testing.T) {
	// Without redial: every response garbled → typed transport error.
	med := paperMediator(t)
	e := newEndpoint(med)
	e.faultOnce = &faultnet.Config{GarbleProb: 1}
	conn, err := e.dial()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.MaxRetries = 1
	cfg.BreakerThreshold = -1
	c := wire.NewClientConfig(conn, cfg)
	err = c.Ping()
	var te *wire.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("garbled frames must surface as TransportError, got %v", err)
	}
	_ = c.Close()

	// With redial: the garbled connection is dropped and the retry
	// succeeds on a clean one.
	e2 := newEndpoint(med)
	e2.faultOnce = &faultnet.Config{GarbleProb: 1}
	c2 := dialEndpoint(t, e2, fastCfg())
	if err := c2.Ping(); err != nil {
		t.Fatalf("ping must recover over redial: %v", err)
	}
	if c2.Redials() == 0 {
		t.Fatal("recovery did not redial")
	}
}

// TestFaultShortWrites: split writes stress framing reassembly; the
// protocol must not care.
func TestFaultShortWrites(t *testing.T) {
	e := newEndpoint(paperMediator(t))
	e.faultOnce = &faultnet.Config{ShortWriteProb: 1}
	c := dialEndpoint(t, e, fastCfg())
	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down()
	if err != nil || rec.Label() != "CustRec" {
		t.Fatalf("navigation over split writes: %v %v", rec, err)
	}
}

// TestCircuitBreaker: the breaker opens after N consecutive failures, fails
// fast without touching the network while open, half-opens after the
// cooldown, and closes again via a successful ping probe.
func TestCircuitBreaker(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}

	e := newEndpoint(paperMediator(t))
	e.setDown(true)
	dead, server := net.Pipe()
	_ = server.Close() // initial connection is already severed
	cfg := fastCfg()
	cfg.MaxRetries = -1
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Second
	cfg.Clock = clock
	cfg.Redial = func() (io.ReadWriteCloser, error) { return e.dial() }
	c := wire.NewClientConfig(dead, cfg)
	defer c.Close()

	for i := 0; i < 3; i++ {
		if err := c.Ping(); err == nil {
			t.Fatalf("ping %d against dead endpoint succeeded", i)
		}
	}
	if st := c.BreakerSnapshot(); st.State != wire.BreakerOpen || st.ConsecutiveFailures != 3 {
		t.Fatalf("breaker after 3 failures: %+v", st)
	}

	// Open: calls fail fast with the typed error and no dial attempt.
	dialsBefore := e.dialCount()
	err := c.Ping()
	if !errors.Is(err, wire.ErrCircuitOpen) {
		t.Fatalf("open breaker must fail fast, got %v", err)
	}
	var coe *wire.CircuitOpenError
	if !errors.As(err, &coe) || coe.Failures != 3 {
		t.Fatalf("CircuitOpenError detail: %v", err)
	}
	if e.dialCount() != dialsBefore {
		t.Fatal("open breaker still touched the network")
	}

	// Endpoint recovers; after the cooldown the half-open ping probe
	// closes the breaker and the real op proceeds.
	e.setDown(false)
	advance(2 * time.Second)
	root, err := c.Open("rootv")
	if err != nil || root.Label() != "list" {
		t.Fatalf("recovery through half-open probe: %v %v", root, err)
	}
	if st := c.BreakerSnapshot(); st.State != wire.BreakerClosed {
		t.Fatalf("breaker after recovery: %+v", st)
	}
}

// TestLargeMaterialize: a >1 MiB response crosses the wire intact (the old
// bufio.Scanner cap silently killed the session), and a client-configured
// frame bound yields a typed ErrFrameTooLarge while the session survives.
func TestLargeMaterialize(t *testing.T) {
	med := mix.New()
	big := strings.Repeat("A", 2<<20) // 2 MiB leaf value
	if err := med.AddXMLSource("&big", "<doc><blob>"+big+"</blob></doc>"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("bigv", `
FOR $B IN document(&big)/blob
RETURN <Big> $B </Big>`); err != nil {
		t.Fatal(err)
	}
	e := newEndpoint(med)

	c := dialEndpoint(t, e, fastCfg())
	root, err := c.Open("bigv")
	if err != nil {
		t.Fatal(err)
	}
	xml, err := root.Materialize()
	if err != nil {
		t.Fatalf("large materialize: %v", err)
	}
	if len(xml) <= 1<<20 || !strings.Contains(xml, "AAAA") {
		t.Fatalf("large response truncated: %d bytes", len(xml))
	}

	// A bounded client rejects the frame with a typed error and resyncs.
	cfg := fastCfg()
	cfg.MaxFrame = 256 << 10
	c2 := dialEndpoint(t, e, cfg)
	root2, err := c2.Open("bigv")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root2.Materialize(); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatalf("session must survive an oversized frame: %v", err)
	}

	// Oversized outbound requests are rejected locally, before the wire.
	if _, err := c2.Query("FOR " + strings.Repeat("x", 512<<10)); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("oversized request: %v", err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleLimitAndRelease: sessions bound their handle tables; Release
// frees slots; close is idempotent.
func TestHandleLimitAndRelease(t *testing.T) {
	med := paperMediator(t)
	srv := wire.NewServer(med)
	srv.MaxHandles = 3
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClient(client)
	defer c.Close()

	root, err := c.Open("rootv") // handle 1
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down() // handle 2
	if err != nil {
		t.Fatal(err)
	}
	cust, err := rec.Down() // handle 3
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cust.Down(); err == nil || !strings.Contains(err.Error(), "handle limit") {
		t.Fatalf("4th handle must hit the limit, got %v", err)
	}
	var se *wire.ServerError
	if _, err := cust.Down(); !errors.As(err, &se) {
		t.Fatalf("handle-limit error must be a ServerError, got %v", err)
	}
	if err := root.Release(); err != nil {
		t.Fatal(err)
	}
	id, err := cust.Down() // the freed slot is reusable
	if err != nil || id == nil {
		t.Fatalf("navigation after release: %v %v", id, err)
	}
	if err := root.Release(); err != nil { // idempotent
		t.Fatalf("double release: %v", err)
	}
}

// TestRemoteCursorBoundsHandles: federation scans release consumed child
// handles as they advance, so a long scan fits in a tiny handle table (the
// old code leaked one handle per child forever).
func TestRemoteCursorBoundsHandles(t *testing.T) {
	lower := mix.New()
	lower.AddRelationalSource(workload.ScaleDB("db1", 25, 3, 42))
	if err := lower.AliasSource("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := lower.AliasSource("&root2", "&db1.orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := lower.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(lower)
	srv.MaxHandles = 8
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClient(client)
	defer c.Close()

	remoteRoot, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	upper := mix.New()
	upper.Catalog().AddDoc("&remote", wire.NewRemoteDoc("&remote", remoteRoot))
	doc, err := upper.Query(`
FOR $R IN document(&remote)/CustRec
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatalf("scan under a tiny handle table: %v", err)
	}
	if len(m.Children) != 25 {
		t.Fatalf("federated scan returned %d children, want 25", len(m.Children))
	}
}

// TestReplayFidelity: after a connection drop, a node deep in the view is
// re-acquired by path replay — navigation and decontextualized in-place
// queries from it still produce the exact answers of an unbroken session.
func TestReplayFidelity(t *testing.T) {
	e := newEndpoint(paperMediator(t))
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	p1, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p1.Right() // second CustRec (customer XYZ123)
	if err != nil || p2 == nil {
		t.Fatalf("r(p1): %v %v", p2, err)
	}
	wantID := p2.ID()

	e.killConn() // network drop: every server-side handle is gone

	cust, err := p2.Down() // replays open+down+right, then steps down
	if err != nil || cust.Label() != "customer" {
		t.Fatalf("post-drop navigation: %v %v", cust, err)
	}
	if p2.ID() != wantID {
		t.Fatalf("replayed node changed identity: %s vs %s", p2.ID(), wantID)
	}
	sub, err := p2.QueryFrom(`
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 500
RETURN $O`)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := sub.Down()
	if err != nil || oi == nil {
		t.Fatalf("in-place query after replay: %v %v", oi, err)
	}
	xml, err := oi.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<orid>31416</orid>") {
		t.Fatalf("replayed in-place result diverged:\n%s", xml)
	}
	if c.Redials() == 0 {
		t.Fatal("recovery did not redial")
	}
}

// TestFaultMidBatchDropNoRedial: a connection drop in the middle of a
// batched walk surfaces as a typed transport error from the navigation
// call — no silent truncation, no hang.
func TestFaultMidBatchDropNoRedial(t *testing.T) {
	e := newEndpoint(flatMediator(t, 50))
	conn, err := e.dial()
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.BatchSize = 8
	cfg.BreakerThreshold = -1
	// No Redial: the drop must surface, not recover.
	c := wire.NewClientConfig(conn, cfg)
	defer c.Close()

	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	e.killConn() // sever mid-walk; read-ahead past the first batch is gone
	var walkErr error
	for n != nil && walkErr == nil {
		n, walkErr = n.Right()
	}
	if walkErr == nil {
		t.Fatal("mid-batch connection drop never surfaced")
	}
	var te *wire.TransportError
	if !errors.As(walkErr, &te) {
		t.Fatalf("mid-batch drop must be a typed TransportError, got %v", walkErr)
	}
}

// TestFaultMidBatchDropRecovers: with redial configured, a mid-batch drop
// is absorbed — the batch fetch reconnects, replays the parent's path, and
// the walk completes with every child exactly once.
func TestFaultMidBatchDropRecovers(t *testing.T) {
	e := newEndpoint(flatMediator(t, 50))
	cfg := fastCfg()
	cfg.BatchSize = 8
	c := dialEndpoint(t, e, cfg)

	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for n != nil {
		count++
		if count == 5 {
			e.killConn() // drop while batches remain to be fetched
		}
		if n, err = n.Right(); err != nil {
			t.Fatalf("walk after mid-batch drop: %v", err)
		}
	}
	if count != 50 {
		t.Fatalf("recovered walk saw %d children, want 50", count)
	}
	if c.Redials() == 0 {
		t.Fatal("recovery did not redial")
	}
}

// TestFaultPartialBatchNoHandleLeak: repeated partially-consumed batched
// scans under a tiny server handle table — consumed frames are released by
// piggyback, abandoned read-ahead by cursor Close; if either leaked, the
// table (8 slots) would exhaust within a few of the 20 iterations.
func TestFaultPartialBatchNoHandleLeak(t *testing.T) {
	med := flatMediator(t, 30)
	srv := wire.NewServer(med)
	srv.MaxHandles = 8
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	cfg := fastCfg()
	cfg.BatchSize = 8
	c := wire.NewClientConfig(client, cfg)
	defer c.Close()

	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	doc := wire.NewRemoteDoc("&remote", root)
	for i := 0; i < 20; i++ {
		cur, err := doc.Open(source.ScanOpts{BatchSize: 8})
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		for j := 0; j < 3; j++ { // consume a partial prefix, then abandon
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("iteration %d next %d: %v %v", i, j, ok, err)
			}
		}
		cur.Close()
	}
	// The session must still have room for normal navigation.
	if _, err := root.Down(); err != nil {
		t.Fatalf("handle table exhausted after partial scans: %v", err)
	}
}

// TestServerErrorLog: Serve surfaces per-connection failures through the
// ErrorLog hook instead of swallowing them.
func TestServerErrorLog(t *testing.T) {
	med := paperMediator(t)
	srv := wire.NewServer(med)
	errc := make(chan error, 1)
	srv.ErrorLog = func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Half a frame — a length prefix promising 64 bytes, two delivered — then
	// a hard close: the server sees a framing error.
	if _, err := conn.Write([]byte{0, 0, 0, 64, 'Q', 1}); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("nil error logged")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection failure never reached ErrorLog")
	}
}
