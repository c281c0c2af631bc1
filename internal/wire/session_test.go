package wire_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/testleak"
	"mix/internal/wire"
	"mix/internal/workload"
)

// limitedEndpoint builds a redialable endpoint whose server runs with the
// given session limits, plus a fast retry hint so tests stay quick.
func limitedEndpoint(t *testing.T, tune func(*wire.Server)) *endpoint {
	t.Helper()
	return limitedEndpointOver(t, paperMediator(t), tune)
}

func limitedEndpointOver(t *testing.T, med *mix.Mediator, tune func(*wire.Server)) *endpoint {
	t.Helper()
	e := newEndpoint(med)
	e.srv.RetryAfter = 2 * time.Millisecond
	tune(e.srv)
	t.Cleanup(func() { _ = e.srv.Close() })
	return e
}

// TestSessionBusyRejection: at the session cap, a fresh connection's first
// request is answered with the typed busy response — surfaced client-side as
// *ServerBusyError carrying the retry hint — and the connection is dropped.
func TestSessionBusyRejection(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.MaxSessions = 1 })

	a := dialEndpoint(t, e, fastCfg())
	if _, err := a.Open("rootv"); err != nil {
		t.Fatal(err)
	}

	// Second session: busy retries disabled, so the rejection surfaces.
	cfgB := fastCfg()
	cfgB.BusyRetries = -1
	b := dialEndpoint(t, e, cfgB)
	err := b.Ping()
	var busy *wire.ServerBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("ping at capacity = %v, want *ServerBusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("busy response carried no retry hint: %+v", busy)
	}
}

// TestSessionBusyBackoffAdmitted: a client facing busy rejections keeps
// retrying with the hinted backoff and is admitted once capacity frees up —
// the session completes with no user-visible failure.
func TestSessionBusyBackoffAdmitted(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.MaxSessions = 1 })

	a := dialEndpoint(t, e, fastCfg())
	if _, err := a.Open("rootv"); err != nil {
		t.Fatal(err)
	}

	b := dialEndpoint(t, e, fastCfg())
	done := make(chan error, 1)
	go func() {
		_, err := b.Open("rootv")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let b hit busy at least once
	_ = a.Close()                     // free the only slot
	if err := <-done; err != nil {
		t.Fatalf("open after busy backoff: %v", err)
	}
	if st := b.WireStats(); st.BusyRetries == 0 {
		t.Fatalf("b admitted without recording busy retries: %+v", st)
	}
	if st := e.srv.SessionStats(); st.RejectedBusy == 0 {
		t.Fatalf("server recorded no busy rejections: %+v", st)
	}
}

// TestSessionResumeAfterEviction: an idle-evicted session's next op redials,
// presents its resume token, replays its navigation path, and continues —
// the first-class version of the redial path-replay contract.
func TestSessionResumeAfterEviction(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.SessionIdle = time.Hour })
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down()
	if err != nil || rec.Label() != "CustRec" {
		t.Fatalf("d(root): %v %v", rec, err)
	}

	if n := e.srv.EvictIdle(0); n != 1 {
		t.Fatalf("EvictIdle(0) evicted %d sessions, want 1", n)
	}

	// Next op hits the closed connection, redials, resumes, replays.
	next, err := rec.Right()
	if err != nil || next == nil {
		t.Fatalf("right after eviction: %v %v", next, err)
	}
	st := c.WireStats()
	if st.Resumes != 1 || st.Redials != 1 {
		t.Fatalf("resumes=%d redials=%d, want 1/1", st.Resumes, st.Redials)
	}
	sst := e.srv.SessionStats()
	if sst.IdleEvicted != 1 || sst.Resumed != 1 {
		t.Fatalf("server idleEvicted=%d resumed=%d, want 1/1", sst.IdleEvicted, sst.Resumed)
	}
}

// TestSessionResumeExpired: a token past the resume window is not honoured —
// the session is admitted fresh (new token) and the expiry is counted.
func TestSessionResumeExpired(t *testing.T) {
	now := time.Now()
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	e := limitedEndpoint(t, func(s *wire.Server) {
		s.SessionIdle = time.Hour
		s.ResumeWindow = time.Minute
		s.Clock = clock
	})
	c := dialEndpoint(t, e, fastCfg())
	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	e.srv.EvictIdle(0)
	mu.Lock()
	now = now.Add(2 * time.Minute) // past the resume window
	mu.Unlock()

	if _, err := root.Down(); err != nil {
		t.Fatalf("down after expired resume: %v", err)
	}
	sst := e.srv.SessionStats()
	if sst.ResumeExpired != 1 {
		t.Fatalf("resumeExpired=%d, want 1", sst.ResumeExpired)
	}
	if sst.Resumed != 0 {
		t.Fatalf("expired token must not resume: %+v", sst)
	}
}

// TestSessionMemQuota: a session holding more outstanding frame bytes than
// its quota gets a typed error telling it to release handles; a well-behaved
// batched walk (releasing as it goes) completes inside a small quota, and
// the server's outstanding-byte accounting drains to zero.
func TestSessionMemQuota(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.SessionMem = 700 })
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	// Hoard handles without releasing: each Down re-acquires the same child
	// under a fresh handle, so outstanding bytes grow until the quota must
	// push back.
	var hoard []*wire.RemoteNode
	var qerr error
	for i := 0; i < 50 && qerr == nil; i++ {
		var next *wire.RemoteNode
		next, qerr = root.DownScan(wire.ScanConfig{BatchSize: -1}) // no batching, no auto-release
		if next == nil {
			break
		}
		hoard = append(hoard, next)
	}
	if qerr == nil || !strings.Contains(qerr.Error(), "memory quota") {
		t.Fatalf("hoarding %d handles under a 700-byte quota: err = %v, want memory-quota error", len(hoard), qerr)
	}
	// Release the hoard: the same session must be usable again.
	for _, h := range hoard {
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := root.Down(); err != nil {
		t.Fatalf("down after releasing hoard: %v", err)
	}
	_ = c.Close()
	waitDrained(t, e.srv)
}

// waitDrained is called once every client has closed: it polls until the
// server has no live session and no node handle left and its
// outstanding-byte gauge reconciles to zero (session goroutines race the
// assertion by a scheduling beat).
func waitDrained(t *testing.T, srv *wire.Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, handles := srv.SessionStats(), srv.LiveHandles()
		if st.Live == 0 && st.MemBytes == 0 && handles == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never drained: %d live handles, %+v", handles, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSessionOpTimeEviction: a session over its cumulative op-time quota is
// evicted by the clock between ops, leaves a resumable record, and its
// client carries on by resume.
func TestSessionOpTimeEviction(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.SessionOpTime = time.Nanosecond })
	c := dialEndpoint(t, e, fastCfg())

	root, err := c.Open("rootv") // burns > 1ns of op time
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.srv.SessionStats().OpTimeEvicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("eviction clock never evicted the over-quota session")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := root.Down(); err != nil {
		t.Fatalf("down after op-time eviction: %v", err)
	}
	if st := c.WireStats(); st.Resumes == 0 {
		t.Fatalf("session continued without resuming: %+v", st)
	}
}

// TestFaultRedialLandsOnEvictedSession: the connection dies mid-batch
// (faultnet cut), the server evicts the half-disconnected session before the
// client's redial lands, and the redial must resume cleanly — one resume, no
// double-freed handles, accounting drains to zero.
func TestFaultRedialLandsOnEvictedSession(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.SessionIdle = time.Hour })
	// open and the one-frame children batch behind Down move 133 bytes and
	// the first Materialize answer ends at byte 420: the read that crosses
	// byte 300 delivers that answer and leaves the connection dead, so the
	// client finds out on the Right below — fetching the next batch of the
	// open window, after the server has evicted the session.
	e.faultOnce = &faultnet.Config{Seed: 7, CloseAfterBytes: 300}
	cfg := fastCfg()
	cfg.BatchSize = 4
	c := dialEndpoint(t, e, cfg)

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	node, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for node != nil {
		// Materialize pumps bytes through the faulty conn until it cuts.
		if _, err := node.Materialize(); err != nil {
			t.Fatalf("materialize (step %d): %v", steps, err)
		}
		if fc, ok := e.last.(*faultnet.Conn); steps == 0 && (!ok || fc.Stats().Closes != 1) {
			t.Fatal("the faultnet cut did not land inside the first materialize")
		}
		// Make sure the dead session is retired server-side before the
		// client notices: the redial must land on an already-evicted
		// session and recover via its token.
		e.srv.EvictIdle(0)
		next, err := node.Right()
		if err != nil {
			t.Fatalf("right (step %d): %v", steps, err)
		}
		node = next
		steps++
	}
	st := c.WireStats()
	if st.Redials == 0 {
		t.Fatalf("fault injection never cut the connection (stats %+v)", st)
	}
	if st.Resumes == 0 {
		t.Fatalf("redial did not resume the session: %+v", st)
	}
	_ = c.Close()
	waitDrained(t, e.srv)
}

// walkSessions runs clients concurrent sessions against e, released together:
// each dials (redialing and resuming as needed), and rounds times opens
// rootv, walks up to 20 of its children reading labels and releases the
// root. Every session must finish its walks. A session that has opened its
// first root waits for hold (nil: does not wait) before walking on.
func walkSessions(t *testing.T, e *endpoint, clients, rounds int, hold <-chan struct{}) {
	t.Helper()
	start := make(chan struct{})
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			<-start
			cfg := fastCfg()
			cfg.MaxRetries = 25 // deliberate eviction storm
			cfg.Seed = int64(i) + 1
			cfg.Redial = e.dial
			conn, err := e.dial()
			if err != nil {
				errs <- err
				return
			}
			c := wire.NewClientConfig(conn, cfg)
			defer c.Close()
			for round := 0; round < rounds; round++ {
				root, err := c.Open("rootv")
				if err != nil {
					errs <- fmt.Errorf("client %d round %d open: %w", i, round, err)
					return
				}
				if hold != nil && round == 0 {
					<-hold
				}
				node, err := root.Down()
				for step := 0; node != nil && err == nil && step < 20; step++ {
					_ = node.Label()
					node, err = node.Right()
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d walk: %w", i, round, err)
					return
				}
				if err := root.Release(); err != nil {
					errs <- fmt.Errorf("client %d round %d release: %w", i, round, err)
					return
				}
			}
			errs <- nil
		}(i)
	}
	close(start)
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestStressEvictionVsNavigation races concurrent walking sessions against
// eviction: every client must finish its walk (resuming as needed), and when
// the dust settles no sessions, no handles and no outstanding bytes survive
// — the double-free / lost-credit detector for the whole eviction-resume
// path. Runs under -race in CI.
func TestStressEvictionVsNavigation(t *testing.T) {
	// An aggressive evictor against a few long-lived clients.
	t.Run("hammer", func(t *testing.T) {
		defer testleak.Check(t)()
		e := limitedEndpoint(t, func(s *wire.Server) {
			s.MaxSessions = 4
			s.SessionIdle = time.Hour // evictions come from the hammer below
		})
		// Stop the eviction clock before the leak check above runs (defers
		// are LIFO; Close is idempotent with the endpoint cleanup).
		defer func() { _ = e.srv.Close() }()

		stop := make(chan struct{})
		var hammer sync.WaitGroup
		hammer.Add(1)
		go func() {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
					// Aggressive but not unwinnable: a 2ms idle bar evicts
					// any session caught between ops while leaving one
					// actively replaying a chance to make progress under
					// -race slowdown.
					e.srv.EvictIdle(2 * time.Millisecond)
					time.Sleep(time.Millisecond)
				}
			}
		}()
		walkSessions(t, e, 8, 3, nil)
		close(stop)
		hammer.Wait()
		waitDrained(t, e.srv)
	})

	// Four times the session cap offered at once, the server's own eviction
	// clock the only evictor: admission control has to act (typed busy,
	// shedding), yet an overloaded mediator may only slow sessions down,
	// never lose one, and must hold nothing once they are gone.
	t.Run("200 sessions over a cap of 50", func(t *testing.T) {
		defer testleak.Check(t)()
		const sessions, maxSessions = 200, 50
		med := rootvMediator(t, workload.ScaleDB("db1", 200, 5, 42))
		e := limitedEndpointOver(t, med, func(s *wire.Server) {
			s.MaxSessions = maxSessions
			s.SessionIdle = 100 * time.Millisecond
		})
		defer func() { _ = e.srv.Close() }()

		// Sessions keep the slots they were admitted to until the server
		// has turned an arrival away or shed for one, so the cap is met
		// however slowly the storm arrives (-race, a loaded host).
		acted := make(chan struct{})
		go func() {
			defer close(acted)
			for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if st := e.srv.SessionStats(); st.RejectedBusy+st.Shed > 0 {
					return
				}
			}
		}()
		walkSessions(t, e, sessions, 1, acted)
		waitDrained(t, e.srv)
		st := e.srv.SessionStats()
		if st.Accepted < sessions {
			t.Fatalf("accepted %d < %d sessions, yet all completed: %+v", st.Accepted, sessions, st)
		}
		if st.RejectedBusy+st.Shed == 0 {
			t.Fatalf("%d sessions over a cap of %d and admission control never acted: %+v", sessions, maxSessions, st)
		}
		if evicted := st.Shed + st.IdleEvicted + st.OpTimeEvicted; evicted > st.Accepted || st.Resumed > st.Accepted {
			t.Fatalf("counters incoherent: %+v", st)
		}
	})
}

// scriptedListener feeds Serve a scripted sequence of accept results.
type scriptedListener struct {
	mu      sync.Mutex
	script  []error // nil entry = deliver a connection
	accepts int
	done    chan struct{}
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: resource temporarily unavailable" }
func (tempErr) Temporary() bool { return true }
func (tempErr) Timeout() bool   { return false }

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.accepts++
	if len(l.script) == 0 {
		close(l.done)
		return nil, errors.New("script exhausted")
	}
	err := l.script[0]
	l.script = l.script[1:]
	if err != nil {
		return nil, err
	}
	server, client := net.Pipe()
	_ = client.Close()
	return &pipeListenerConn{server}, nil
}

func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// pipeListenerConn adapts net.Pipe's conn to net.Conn for Accept.
type pipeListenerConn struct{ net.Conn }

// TestServeAcceptBackoff: temporary accept errors (EMFILE-class) must not
// kill the server — Serve backs off and keeps accepting; a permanent error
// still returns.
func TestServeAcceptBackoff(t *testing.T) {
	l := &scriptedListener{
		script: []error{tempErr{}, tempErr{}, tempErr{}, nil},
		done:   make(chan struct{}),
	}
	srv := wire.NewServer(paperMediator(t))
	var logged int
	var mu sync.Mutex
	srv.ErrorLog = func(error) { mu.Lock(); logged++; mu.Unlock() }

	start := time.Now()
	err := srv.Serve(l)
	if err == nil || err.Error() != "script exhausted" {
		t.Fatalf("Serve = %v, want the scripted permanent error", err)
	}
	// Three temporary errors at 5/10/20ms capped backoff ≈ 35ms minimum.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("Serve returned after %v: did not back off on temporary errors", elapsed)
	}
	mu.Lock()
	defer mu.Unlock()
	if logged < 3 {
		t.Fatalf("logged %d accept retries, want 3", logged)
	}
}

// TestShutdownDrain: Shutdown stops the accept loop (Serve returns
// ErrServerClosed), new sessions are refused, and live sessions are closed —
// with every connection goroutine Serve started gone.
func TestShutdownDrain(t *testing.T) {
	defer testleak.Check(t)()
	med := paperMediator(t)
	srv := wire.NewServer(med)
	srv.MaxSessions = 8
	srv.RetryAfter = 2 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	c, err := wire.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("rootv"); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, wire.ErrServerClosed) {
			t.Fatalf("Serve after Shutdown = %v, want ErrServerClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if st := med.SessionStats(); st.Live != 0 {
		t.Fatalf("%d sessions live after drain", st.Live)
	}
	// The drained client's next op fails: its connection was closed.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded against a drained server")
	}
}
