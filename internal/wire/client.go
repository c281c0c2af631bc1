package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"mix/internal/xmlio"
	"mix/internal/xtree"
)

// Defaults for ClientConfig's zero values.
const (
	DefaultOpTimeout        = 30 * time.Second
	DefaultMaxRetries       = 2
	DefaultBackoffBase      = 5 * time.Millisecond
	DefaultBackoffMax       = 500 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
	// DefaultBatchSize caps one children batch. The adaptive window
	// starts at one frame and doubles toward this cap as the client keeps
	// scanning, so the cap is only reached on long walks.
	DefaultBatchSize = 64
	// DefaultBusyRetries bounds retries after typed server-busy admission
	// rejections. Generous on purpose: busy is the server shedding load it
	// expects to absorb shortly, so the client should outlast a burst
	// rather than fail a session that was never even admitted.
	DefaultBusyRetries = 25
)

// ErrConnectionBroken reports an operation attempted on a connection that
// failed earlier and has no Redial configured to recover it.
var ErrConnectionBroken = errors.New("wire: connection broken")

// ErrNodeReleased reports a use of a RemoteNode after Release.
var ErrNodeReleased = errors.New("wire: use of released node")

// ErrClientClosed reports a use of a Client after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ServerError is an application-level failure reported by the mediator (bad
// query, unknown view, handle limit, ...). The connection stays healthy;
// server errors are never retried and never count against the breaker.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: " + e.Msg }

// ServerBusyError reports a typed admission rejection: the server is at its
// session limit (or draining) and the op was never executed, so any op —
// idempotent or not — is safe to retry. RetryAfter carries the server's
// hint. The client honours busy with its own retry budget
// (ClientConfig.BusyRetries), sleeping the hint plus jittered exponential
// backoff; busy never feeds the circuit breaker (the endpoint is alive and
// answering — that is the opposite of the failure the breaker guards).
type ServerBusyError struct{ RetryAfter time.Duration }

func (e *ServerBusyError) Error() string {
	return fmt.Sprintf("wire: server busy (retry after %v)", e.RetryAfter)
}

// TransportError wraps a connection-level failure (timeout, reset, EOF,
// garbled framing). Transport errors are retried for idempotent operations,
// trigger reconnection when Redial is set, and feed the circuit breaker.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "wire: transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// Timeout reports whether the underlying failure was a deadline expiry.
func (e *TransportError) Timeout() bool {
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// ClientConfig tunes the client's resilience behaviour. The zero value is
// production-safe: 30 s per-op deadline, 2 retries with jittered
// exponential backoff for idempotent ops, a breaker that opens after 5
// consecutive transport failures and probes again after 1 s.
type ClientConfig struct {
	// OpTimeout bounds one wire round trip, enforced through the
	// connection's SetDeadline when available (net.Conn, net.Pipe,
	// faultnet.Conn). 0 means DefaultOpTimeout; negative disables.
	OpTimeout time.Duration
	// MaxRetries bounds automatic retries of idempotent ops (ping, stats,
	// close) after transport failures. 0 means DefaultMaxRetries; negative
	// disables retries.
	MaxRetries int
	// BackoffBase/BackoffMax shape the jittered exponential backoff
	// between retries: attempt k sleeps in [d/2, d) for
	// d = min(BackoffMax, BackoffBase·2^(k-1)).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BusyRetries bounds retries after a typed server-busy admission
	// rejection (*ServerBusyError). Busy is load shedding, not failure: it
	// has its own budget separate from MaxRetries, applies to every op (a
	// rejected op was never executed), and never feeds the circuit
	// breaker. Each retry sleeps the server's retry-after hint plus the
	// jittered exponential backoff. 0 means DefaultBusyRetries; negative
	// disables busy retries (busy surfaces to the caller immediately).
	BusyRetries int
	// Seed seeds the jitter source (deterministic tests); 0 means 1.
	Seed int64
	// MaxFrame bounds one protocol frame in bytes; 0 means
	// DefaultMaxFrame. Oversized frames yield *FrameTooLargeError without
	// killing the session.
	MaxFrame int
	// Redial, when set, re-establishes the transport after a connection
	// failure. Server-side handles die with the old session; the client
	// transparently replays each RemoteNode's recorded navigation path to
	// re-acquire them. Dial installs a TCP redialer automatically.
	Redial func() (io.ReadWriteCloser, error)
	// BreakerThreshold opens the per-endpoint circuit breaker after that
	// many consecutive transport failures; while open, calls fail fast
	// with *CircuitOpenError. 0 means DefaultBreakerThreshold; negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay; the half-open state
	// admits a single ping probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// Clock overrides the breaker's time source (tests). Nil means
	// time.Now. Op deadlines always use the wall clock.
	Clock func() time.Time
	// BatchSize caps one batched-navigation window (the children op):
	// Down starts an adaptive read-ahead cursor whose batches grow
	// geometrically from 1 toward this cap while Right keeps consuming.
	// 0 means DefaultBatchSize; 1 or negative disables batching entirely,
	// preserving the one-round-trip-per-step behaviour exactly.
	BatchSize int
	// Prefetch declares that the client will drain the windows it opens:
	// after the one-frame first batch, every batch asks for the BatchSize
	// cap instead of doubling toward it. Batches are still fetched on the
	// goroutine that asks for them; background read-ahead is source.Ahead's.
	Prefetch bool
	// NodeCache retains up to this many navigation node frames across batch
	// windows and reconnects, keyed by (parent object id, child index): a
	// re-walk of an already visited subtree costs one validating ping
	// instead of re-fetching every batch. Consistency is versioned — every
	// response piggybacks the server's data version and any change purges
	// the cache (see nodeCache). 0 or negative (the default) disables the
	// cache entirely: every walk fetches from the wire, byte-identical to
	// prior behaviour.
	NodeCache int
}

func (cfg *ClientConfig) normalize() {
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = DefaultBackoffBase
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = DefaultBackoffMax
	}
	if cfg.BusyRetries == 0 {
		cfg.BusyRetries = DefaultBusyRetries
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1 // negative: batching disabled
	}
	if cfg.NodeCache < 0 {
		cfg.NodeCache = 0 // negative: node cache disabled
	}
}

func (cfg *ClientConfig) retries() int {
	if cfg.MaxRetries < 0 {
		return 0
	}
	return cfg.MaxRetries
}

func (cfg *ClientConfig) busyRetries() int {
	if cfg.BusyRetries < 0 {
		return 0
	}
	return cfg.BusyRetries
}

// idempotentOps may be retried blindly: they read state that exists
// independently of the request (no server-side handle allocation, no
// payload beyond a scalar). See DESIGN.md's idempotency table.
var idempotentOps = map[string]bool{"ping": true, "stats": true, "close": true}

// deadliner is the subset of net.Conn the client uses for op deadlines.
type deadliner interface{ SetDeadline(time.Time) error }

// Client is the thin client-side library: it speaks the wire protocol and
// exposes remote virtual documents through RemoteNode, whose surface mirrors
// the in-process QDOM API. A Client is safe for concurrent use; requests are
// serialized over the single connection.
//
// Resilience (see ClientConfig): every op runs under a deadline; idempotent
// ops retry with jittered exponential backoff; after a connection failure
// the client redials (when configured) and replays each node's recorded
// navigation path — the client-resident analogue of the paper's object
// ids — to re-acquire server-side handles; a circuit breaker fails fast
// while the endpoint is down and ping-probes it half-open.
type Client struct {
	cfg     ClientConfig
	breaker *Breaker
	// cache is the navigation node cache (ClientConfig.NodeCache); nil when
	// disabled. It outlives connections: reconnects bump its epoch instead
	// of dropping it, which is what makes post-redial replay cheap.
	cache *nodeCache

	rmu sync.Mutex // guards rng
	rng *rand.Rand

	mu     sync.Mutex // guards conn state
	conn   io.ReadWriteCloser
	in     *bufio.Reader
	next   int64
	gen    int64 // connection generation; bumped on reconnect
	broken bool
	closed bool
	binBuf []byte // reused request frame buffer (frameLocked)

	// pendingRelease holds handles of consumed batch frames awaiting
	// piggybacked release on the next request (Request.Release) — releasing
	// one frame per round trip would hand back the round trips batching
	// saved. Cleared on reconnect (handles die with the session).
	pendingRelease []int64

	// sessionToken is the resumable session token issued by a
	// session-limited server on the first response after admission. A
	// reconnect presents it in a resume request before any other op, so an
	// evicted session re-attaches its server-side record and path replay
	// lands on the resumed session. Empty against limit-less servers —
	// which is what keeps the resume round trip (and every other
	// byte of this machinery) off the wire in the default configuration.
	sessionToken string

	redials        int64 // diagnostics: successful reconnects
	reqsSent       int64 // round trips issued (counted after a successful write)
	batchesFetched int64 // children batches received
	framesBatched  int64 // frames across those batches
	busyRetries    int64 // retries consumed by server-busy rejections
	resumes        int64 // successful session-token resumes

	// Bytes-on-wire accounting, length prefix included: totals plus a per-op
	// breakdown, counted at the write and read points.
	bytesSent   int64
	bytesRecv   int64
	opBytesSent map[string]int64
	opBytesRecv map[string]int64
}

// noteBytesLocked charges one exchange's wire bytes (framing included) to
// the totals and the per-op breakdown (c.mu held).
func (c *Client) noteBytesLocked(op string, sent, recv int) {
	c.bytesSent += int64(sent)
	c.bytesRecv += int64(recv)
	if c.opBytesSent == nil {
		c.opBytesSent = make(map[string]int64)
		c.opBytesRecv = make(map[string]int64)
	}
	c.opBytesSent[op] += int64(sent)
	c.opBytesRecv[op] += int64(recv)
}

// WireStats are the client's round-trip counters. Benchmarks and tests
// assert the batching win directly from these instead of inferring it from
// wall clock.
type WireStats struct {
	RequestsSent   int64
	BatchesFetched int64
	FramesBatched  int64
	Redials        int64
	// BusyRetries counts retries consumed by typed server-busy admission
	// rejections; Resumes counts successful session-token resumes after a
	// reconnect. Both stay zero against servers without session limits.
	BusyRetries int64
	Resumes     int64
	// Node cache counters (all zero when ClientConfig.NodeCache is off):
	// window lookups served from / fallen through the cache, dedicated
	// validating pings issued, and LRU evictions.
	NodeCacheHits        int64
	NodeCacheMisses      int64
	NodeCacheValidations int64
	NodeCacheEvictions   int64
	// Bytes on the wire, framing included: totals plus per-op breakdowns
	// keyed by protocol op.
	BytesSent   int64
	BytesRecv   int64
	OpBytesSent map[string]int64
	OpBytesRecv map[string]int64
}

// WireStats snapshots the round-trip counters.
func (c *Client) WireStats() WireStats {
	c.mu.Lock()
	st := WireStats{
		RequestsSent:   c.reqsSent,
		BatchesFetched: c.batchesFetched,
		FramesBatched:  c.framesBatched,
		Redials:        c.redials,
		BusyRetries:    c.busyRetries,
		Resumes:        c.resumes,
		BytesSent:      c.bytesSent,
		BytesRecv:      c.bytesRecv,
	}
	if len(c.opBytesSent) > 0 {
		st.OpBytesSent = make(map[string]int64, len(c.opBytesSent))
		st.OpBytesRecv = make(map[string]int64, len(c.opBytesRecv))
		for op, n := range c.opBytesSent {
			st.OpBytesSent[op] = n
		}
		for op, n := range c.opBytesRecv {
			st.OpBytesRecv[op] = n
		}
	}
	c.mu.Unlock()
	if c.cache != nil {
		st.NodeCacheHits = c.cache.hits.Load()
		st.NodeCacheMisses = c.cache.misses.Load()
		st.NodeCacheValidations = c.cache.validations.Load()
		st.NodeCacheEvictions = c.cache.frames.Stats().Evictions
	}
	return st
}

func (c *Client) noteBatch(frames int) {
	c.mu.Lock()
	c.batchesFetched++
	c.framesBatched += int64(frames)
	c.mu.Unlock()
}

// deferRelease queues a handle for piggybacked release on the next request.
// Stale handles (connection turned over) are dropped: they died with their
// session.
func (c *Client) deferRelease(h, gen int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.broken || c.gen != gen {
		return
	}
	c.pendingRelease = append(c.pendingRelease, h)
}

// Dial connects to a mediator server with default resilience settings and
// automatic TCP redial.
func Dial(addr string) (*Client, error) { return DialConfig(addr, ClientConfig{}) }

// DialConfig connects with explicit resilience settings. If cfg.Redial is
// nil a TCP redialer for addr is installed.
func DialConfig(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if cfg.Redial == nil {
		cfg.Redial = func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }
	}
	return NewClientConfig(conn, cfg), nil
}

// NewClient wraps an established connection (tests use net.Pipe) with
// default resilience settings and no redial.
func NewClient(conn io.ReadWriteCloser) *Client { return NewClientConfig(conn, ClientConfig{}) }

// NewClientConfig wraps an established connection with explicit settings.
func NewClientConfig(conn io.ReadWriteCloser, cfg ClientConfig) *Client {
	cfg.normalize()
	c := &Client{
		cfg:     cfg,
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock),
		rng:     rand.New(rand.NewPCG(uint64(cfg.Seed), 0)),
		conn:    conn,
		in:      bufio.NewReaderSize(conn, frameBufSize),
	}
	if cfg.NodeCache > 0 {
		c.cache = newNodeCache(cfg.NodeCache)
	}
	return c
}

// Close closes the connection; further ops fail with ErrClientClosed. The
// client's buffers go with it: a closed client may stay referenced (by a
// RemoteDoc in a catalog, a shard's member list) long after.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.in, c.binBuf, c.pendingRelease = nil, nil, nil
	return c.conn.Close()
}

// BreakerSnapshot exposes the endpoint breaker's state (diagnostics,
// catalog health).
func (c *Client) BreakerSnapshot() BreakerSnapshot { return c.breaker.Snapshot() }

// hasSessionToken reports whether the server issued a resumable session
// token — i.e. this client is talking to a session-limited server where
// eviction is a normal, recoverable event.
func (c *Client) hasSessionToken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionToken != ""
}

// Redials reports how many times the client reconnected (diagnostics).
func (c *Client) Redials() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redials
}

// errStaleHandle: the connection turned over between handle resolution and
// the round trip; the caller re-resolves and retries.
var errStaleHandle = errors.New("stale handle after reconnect")

// reconnectLocked re-establishes the transport (c.mu held). Old handles are
// invalidated by bumping the generation; nodes replay their paths lazily.
func (c *Client) reconnectLocked() error {
	if c.cfg.Redial == nil {
		return &TransportError{Err: ErrConnectionBroken}
	}
	conn, err := c.cfg.Redial()
	if err != nil {
		return &TransportError{Err: fmt.Errorf("redial: %w", err)}
	}
	if c.conn != nil {
		_ = c.conn.Close()
	}
	c.conn = conn
	c.in = bufio.NewReaderSize(conn, frameBufSize)
	c.broken = false
	c.gen++
	c.redials++
	c.pendingRelease = nil // old handles died with the old session
	if c.cache != nil {
		// Cached frames survive the reconnect, but no window serves them
		// again until a response from the new connection vouches for the
		// endpoint's data version (mutate-while-disconnected is invisible
		// otherwise).
		c.cache.bumpEpoch()
	}
	if c.sessionToken != "" {
		// A session-limited server issued a token: present it before any
		// other op so the new connection re-attaches the evicted session's
		// record instead of competing for a fresh admission slot.
		if err := c.resumeLocked(); err != nil {
			return err
		}
	}
	return nil
}

// resumeLocked performs the resume exchange on a freshly redialed
// connection (c.mu held, called only from reconnectLocked). It is a raw
// round trip — the do/attemptOnce machinery sits above c.mu — and must be
// the session's first request: admission treats a leading resume op as the
// evicted session returning, admitting it even at capacity since its load
// is already accounted for. A busy answer surfaces as *ServerBusyError
// (do's busy budget redials and retries); a plain rejection means the
// token is unknown — expired, or a limit-less server — so it is dropped
// and the session carries on as a fresh admission.
func (c *Client) resumeLocked() error {
	c.next++
	c.frameLocked(&Request{ID: c.next, Op: "resume", Token: c.sessionToken})
	resp, err := c.exchangeLocked("resume", c.next)
	if err != nil {
		return err
	}
	// A well-formed resume answer — busy included — proves the endpoint
	// alive. Record it with the breaker: under an eviction storm every op
	// attempt ends in a transport error (each one a breaker failure), and
	// without this reset the breaker would open against a server that is
	// answering every redial.
	c.breaker.Success()
	if resp.Busy {
		c.broken = true
		return &ServerBusyError{RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond}
	}
	if !resp.OK {
		c.sessionToken = ""
		return nil
	}
	c.sessionToken = resp.Token
	if resp.Token != "" {
		c.resumes++
	}
	return nil
}

// liveGen returns the connection generation without reconnecting.
func (c *Client) liveGen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// currentGen returns the live connection generation, reconnecting first if
// the connection is marked broken.
func (c *Client) currentGen() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClientClosed
	}
	if c.broken {
		if err := c.reconnectLocked(); err != nil {
			return 0, err
		}
	}
	return c.gen, nil
}

// roundTrip performs one locked request/response exchange. wantGen >= 0
// asserts the request's handle belongs to the current connection
// generation. See exchangeLocked for the transport-failure contract.
func (c *Client) roundTrip(req Request, wantGen int64) (Response, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Response{}, 0, ErrClientClosed
	}
	if c.broken {
		if err := c.reconnectLocked(); err != nil {
			return Response{}, 0, err
		}
	}
	if wantGen >= 0 && c.gen != wantGen {
		return Response{}, 0, &TransportError{Err: errStaleHandle}
	}
	c.next++
	req.ID = c.next
	// Piggyback pending frame releases. On a request-side failure (an
	// oversized frame) the connection stays healthy and the handles go back
	// in the queue; transport failures below break the connection, which
	// invalidates the handles anyway.
	piggyback := c.pendingRelease
	if piggyback != nil {
		c.pendingRelease = nil
		req.Release = piggyback
	}
	size := c.frameLocked(&req)
	if size > c.cfg.MaxFrame && piggyback != nil {
		// The piggyback itself may have pushed the frame over the limit;
		// requeue it and send the op bare.
		c.pendingRelease = piggyback
		req.Release = nil
		size = c.frameLocked(&req)
	}
	if size > c.cfg.MaxFrame {
		return Response{}, 0, &FrameTooLargeError{Limit: c.cfg.MaxFrame}
	}
	resp, err := c.exchangeLocked(req.Op, req.ID)
	if err != nil {
		return Response{}, 0, err
	}
	if resp.Busy {
		// Admission rejection: the server is closing the connection behind
		// this response, so mark the connection broken — the busy retry in
		// do redials and tries admission again after the hinted delay.
		c.broken = true
		return Response{}, 0, &ServerBusyError{RetryAfter: time.Duration(resp.RetryAfterMs) * time.Millisecond}
	}
	if !resp.OK {
		return Response{}, 0, &ServerError{Msg: resp.Error}
	}
	if resp.Token != "" {
		// First response after admission on a session-limited server: hold
		// the resumable token so a later eviction or disconnect resumes
		// transparently on redial.
		c.sessionToken = resp.Token
	}
	if c.cache != nil {
		// Every successful response validates (or purges) the node cache;
		// nodeCache locks are leaves below c.mu.
		c.cache.observe(resp.DataVersion)
	}
	return resp, c.gen, nil
}

// frameLocked encodes req as a frame in the reused buffer (c.mu held) and
// returns the payload's size.
func (c *Client) frameLocked(req *Request) int {
	c.binBuf = encodeRequest(frameStart(c.binBuf), req)
	return len(c.binBuf) - binLenSize
}

// exchangeLocked is the one wire exchange (c.mu held): write the frame
// frameLocked built → read → decode → id check. Transport-level failures
// mark the connection broken (a late response to a timed-out request must
// never be read as the answer to the next one) and come back as
// *TransportError; an oversized response is drained by readBinFrame, so the
// stream stays in sync.
func (c *Client) exchangeLocked(op string, id int64) (Response, error) {
	if d, ok := c.conn.(deadliner); ok && c.cfg.OpTimeout > 0 {
		_ = d.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
		defer d.SetDeadline(time.Time{})
	}
	transport := func(err error) (Response, error) {
		c.broken = true
		return Response{}, &TransportError{Err: err}
	}
	if err := writeBinFrame(c.conn, c.binBuf); err != nil {
		return transport(err)
	}
	c.reqsSent++
	c.noteBytesLocked(op, len(c.binBuf), 0)
	frame, err := readBinFrame(c.in, c.cfg.MaxFrame)
	if err != nil {
		var tooBig *FrameTooLargeError
		if errors.As(err, &tooBig) {
			return Response{}, tooBig
		}
		return transport(err)
	}
	c.noteBytesLocked(op, 0, binLenSize+len(frame))
	resp, err := decodeResponse(frame)
	if err != nil {
		return transport(fmt.Errorf("garbled response: %w", err))
	}
	if resp.ID != id {
		return transport(fmt.Errorf("response id %d for request %d", resp.ID, id))
	}
	return resp, nil
}

func isTransient(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// backoff sleeps before retry attempt k (1-based): jittered exponential.
func (c *Client) backoff(attempt int) {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	time.Sleep(c.jitter(d))
}

// jitter draws a sleep from [d/2, d].
func (c *Client) jitter(d time.Duration) time.Duration {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return d/2 + time.Duration(c.rng.Int64N(int64(d/2)+1))
}

// busyBackoff sleeps before busy retry attempt k (1-based): the server's
// retry-after hint plus the usual jittered exponential term. The hint is a
// floor, never the whole sleep — if every rejected client came back after
// exactly the hint, the busy storm would arrive in lockstep again.
func (c *Client) busyBackoff(attempt int, hint time.Duration) {
	d := c.cfg.BackoffBase << (attempt - 1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	time.Sleep(hint + c.jitter(d))
}

// attemptOnce resolves the node's handle (replaying its path if the
// connection turned over) and performs one round trip.
func (c *Client) attemptOnce(req Request, n *RemoteNode) (Response, int64, error) {
	wantGen := int64(-1)
	if n != nil {
		n.mu.Lock()
		err := c.ensureNodeLocked(n)
		if err == nil {
			req.Handle = n.handle
			wantGen = n.gen
		}
		n.mu.Unlock()
		if err != nil {
			return Response{}, 0, err
		}
	}
	return c.roundTrip(req, wantGen)
}

// probe runs the half-open breaker probe: a bare ping. A busy answer does
// not feed the breaker: the endpoint is alive and shedding load, which is
// the opposite of the dead-endpoint condition the breaker guards.
func (c *Client) probe() error {
	if _, _, err := c.attemptOnce(Request{Op: "ping"}, nil); err != nil {
		var busy *ServerBusyError
		if !errors.As(err, &busy) {
			c.breaker.Failure(err)
		}
		return fmt.Errorf("wire: half-open probe: %w", err)
	}
	c.breaker.Success()
	return nil
}

// do is the op driver: breaker gate (with half-open ping probe), bounded
// retry with backoff for idempotent ops, and a single reconnect-and-replay
// recovery attempt for the remaining (read-only but handle-allocating) ops.
// Typed server-busy rejections run on their own budget (BusyRetries): the
// rejected op was never executed, so every op is busy-retryable, the retry
// does not consume a transport attempt, and busy never trips the breaker.
func (c *Client) do(req Request, n *RemoteNode) (Response, int64, error) {
	maxAttempts := 1
	if idempotentOps[req.Op] {
		maxAttempts += c.cfg.retries()
	} else if c.cfg.Redial != nil {
		maxAttempts++ // one recovery attempt after reconnect
		if c.hasSessionToken() {
			// Session-limited server: eviction is a routine, resumable event,
			// not an anomaly, so transport failures get the full retry budget
			// for every op. This cannot leak handles the way retrying a
			// handle-allocating op normally could: a reconnect drops the old
			// session's handle table wholesale, so an executed-but-unanswered
			// op left nothing behind to double-allocate.
			if full := 1 + c.cfg.retries(); full > maxAttempts {
				maxAttempts = full
			}
		}
	}
	busyBudget := c.cfg.busyRetries()
	var lastErr error
	for attempt, busyAttempt := 0, 0; attempt < maxAttempts; {
		probe, err := c.breaker.Allow()
		if err != nil {
			return Response{}, 0, err
		}
		if probe && req.Op != "ping" {
			if err := c.probe(); err != nil {
				lastErr = err
				if attempt++; attempt < maxAttempts {
					c.backoff(attempt)
				}
				continue
			}
		}
		resp, gen, err := c.attemptOnce(req, n)
		if err == nil {
			c.breaker.Success()
			return resp, gen, nil
		}
		var busy *ServerBusyError
		if errors.As(err, &busy) {
			if busyAttempt++; busyAttempt > busyBudget {
				return Response{}, 0, err
			}
			c.mu.Lock()
			c.busyRetries++
			c.mu.Unlock()
			c.busyBackoff(busyAttempt, busy.RetryAfter)
			continue
		}
		if !isTransient(err) {
			// Application-level failure: endpoint alive, don't retry.
			return Response{}, 0, err
		}
		c.breaker.Failure(err)
		lastErr = err
		if attempt++; attempt < maxAttempts {
			c.backoff(attempt)
		}
	}
	return Response{}, 0, lastErr
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, _, err := c.do(Request{Op: "ping"}, nil)
	return err
}

// Open starts a session on a registered view and returns its root.
func (c *Client) Open(view string) (*RemoteNode, error) {
	resp, gen, err := c.do(Request{Op: "open", View: view}, nil)
	if err != nil {
		return nil, err
	}
	return c.node(resp, gen, nodePath{view: view}), nil
}

// Query runs a query and returns the result root.
func (c *Client) Query(query string) (*RemoteNode, error) {
	resp, gen, err := c.do(Request{Op: "query", Query: query}, nil)
	if err != nil {
		return nil, err
	}
	return c.node(resp, gen, nodePath{query: query}), nil
}

// Stats reads the server-side transfer counters.
func (c *Client) Stats() (tuplesShipped, queriesReceived int64, err error) {
	resp, _, err := c.do(Request{Op: "stats"}, nil)
	if err != nil {
		return 0, 0, err
	}
	return resp.TuplesShipped, resp.QueriesReceived, nil
}

func (c *Client) node(resp Response, gen int64, path nodePath) *RemoteNode {
	if resp.Nil {
		return nil
	}
	return &RemoteNode{
		c:      c,
		handle: resp.Handle,
		gen:    gen,
		label:  resp.Label,
		nodeID: resp.NodeID,
		leaf:   resp.IsLeaf,
		value:  resp.Value,
		path:   path,
	}
}

// nodePath records how a node was reached, so its server-side handle can be
// re-acquired after a reconnect: an origin (open view / query / queryFrom of
// a parent node / the i-th child of a batch parent) plus the navigation
// steps taken from the origin. The child origin keeps batched nodes' paths
// flat: replay is one children(skip=i, max=1) round trip from the parent,
// not i single steps.
type nodePath struct {
	view     string      // origin: open, when non-empty
	query    string      // origin: query (parent nil) or queryFrom (parent set)
	parent   *RemoteNode // origin: queryFrom source node, or batch parent
	child    bool        // origin: childIdx-th child of parent (batch frame)
	childIdx int
	steps    []string // down/right/up steps from the origin
}

func (p nodePath) extend(step string) nodePath {
	steps := make([]string, len(p.steps)+1)
	copy(steps, p.steps)
	steps[len(p.steps)] = step
	p.steps = steps
	return p
}

// ensureNodeLocked (n.mu held) makes n.handle valid on the current
// connection, replaying the node's path after a reconnect.
func (c *Client) ensureNodeLocked(n *RemoteNode) error {
	if n.released {
		return ErrNodeReleased
	}
	gen, err := c.currentGen()
	if err != nil {
		return err
	}
	if n.gen == gen {
		return nil
	}
	return c.replayLocked(n, gen)
}

// replayLocked re-derives n's handle on connection generation gen: rerun
// the origin, step the recorded path, release intermediate handles, and
// verify the object id still matches (divergence means the source data
// moved underneath us — surfaced, not papered over).
func (c *Client) replayLocked(n *RemoteNode, gen int64) error {
	var resp Response
	var err error
	switch {
	case n.path.parent != nil:
		p := n.path.parent
		p.mu.Lock()
		perr := c.ensureNodeLocked(p)
		var ph int64
		var pgen int64
		if perr == nil {
			ph, pgen = p.handle, p.gen
		}
		p.mu.Unlock()
		if perr != nil {
			return perr
		}
		if n.path.child {
			// Batch-frame origin: re-acquire the childIdx-th child in one
			// skip round trip.
			var br Response
			br, gen, err = c.roundTrip(Request{Op: "children", Handle: ph, Skip: n.path.childIdx, Max: 1}, pgen)
			if err != nil {
				return err
			}
			if len(br.Frames) == 0 {
				return fmt.Errorf("wire: replay of node %s: child %d is gone", n.nodeID, n.path.childIdx)
			}
			f := br.Frames[0]
			resp = Response{Handle: f.Handle, Label: f.Label, NodeID: f.NodeID, IsLeaf: f.IsLeaf, Value: f.Value}
			break
		}
		resp, gen, err = c.roundTrip(Request{Op: "queryFrom", Handle: ph, Query: n.path.query}, pgen)
	case n.path.view != "":
		resp, gen, err = c.roundTrip(Request{Op: "open", View: n.path.view}, -1)
	default:
		resp, gen, err = c.roundTrip(Request{Op: "query", Query: n.path.query}, -1)
	}
	if err != nil {
		return err
	}
	if resp.Nil {
		return fmt.Errorf("wire: replay of node %s: origin is ⊥", n.nodeID)
	}
	handle := resp.Handle
	for _, step := range n.path.steps {
		next, g, serr := c.roundTrip(Request{Op: step, Handle: handle}, gen)
		_, _, _ = c.roundTrip(Request{Op: "close", Handle: handle}, gen) // best effort
		if serr != nil {
			return serr
		}
		if next.Nil {
			return fmt.Errorf("wire: replay of node %s: step %s reached ⊥", n.nodeID, step)
		}
		handle, gen, resp = next.Handle, g, next
	}
	if resultScoped(n) {
		// Query results are fresh instances on every execution: their
		// synthetic object ids (&resultN) change each run, so id equality
		// would reject every replayed query node. The path is positional —
		// verify the label still matches and rebase the recorded id.
		if n.label != "" && resp.Label != "" && resp.Label != n.label {
			return fmt.Errorf("wire: replay diverged: node %s (label %s) is now labeled %s", n.nodeID, n.label, resp.Label)
		}
		n.nodeID = resp.NodeID
	} else if n.nodeID != "" && resp.NodeID != "" && resp.NodeID != n.nodeID {
		return fmt.Errorf("wire: replay diverged: node %s is now %s", n.nodeID, resp.NodeID)
	}
	n.handle = handle
	n.gen = gen
	n.kids = nil // the new handle's children are the server's to list afresh
	return nil
}

// resultScoped reports whether n lives inside a query's result tree: its
// origin chain reaches a query/queryFrom before any view open. Replaying
// such a node re-executes the query, producing a fresh result instance
// whose synthetic object ids differ run to run.
func resultScoped(n *RemoteNode) bool {
	for p := n; p != nil; p = p.path.parent {
		if p.path.query != "" {
			return true
		}
		if p.path.view != "" {
			return false
		}
	}
	return false
}

// RemoteNode is the client-resident stand-in for a node of a virtual
// document at the mediator. Navigation methods evaluate one QDOM step
// remotely; label, id and leaf-value are cached from the creating response
// (the protocol piggybacks them, saving round trips). Each node records the
// navigation path that produced it, so a reconnected client can replay it
// and re-acquire the server-side handle.
type RemoteNode struct {
	c *Client

	mu       sync.Mutex
	handle   int64
	gen      int64
	released bool

	label  string
	nodeID string
	value  string
	leaf   bool
	hasEnc bool // enc is set: the two bools share a word, keeping the struct in its size class
	path   nodePath

	// win/winIdx seat the node in the batch window that produced it: Right
	// takes the next seat, paying a round trip only when it ends a batch.
	win    *batchWindow
	winIdx int
	// kids is the window over this node's own children, opened by its first
	// DownScan and kept until Release (n.mu).
	kids *batchWindow
	// enc holds the subtree a Deep batch shipped, in the tree encoding;
	// tree is that subtree decoded, once (n.mu).
	enc  string
	tree *xtree.Node
}

// Handle exposes the protocol handle (diagnostics).
func (n *RemoteNode) Handle() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handle
}

// Label returns the node's label (fl).
func (n *RemoteNode) Label() string {
	if n == nil {
		return ""
	}
	return n.label
}

// ID returns the node's object id.
func (n *RemoteNode) ID() string {
	if n == nil {
		return ""
	}
	return n.nodeID
}

// IsLeaf reports whether the node is a leaf.
func (n *RemoteNode) IsLeaf() bool { return n == nil || n.leaf }

// Value returns a leaf's value (fv); ok=false on non-leaves (⊥).
func (n *RemoteNode) Value() (string, bool) {
	if n == nil || !n.leaf {
		return "", false
	}
	return n.value, true
}

// Release frees the node's server-side handle (the protocol's close op) and
// drops the window over its children. Sessions bound their handle tables, so
// long-lived clients must release nodes they are done with; remoteCursor does
// this automatically. Safe on nil and after connection loss (old handles die
// with the old session).
func (n *RemoteNode) Release() error {
	if n == nil {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.released {
		return nil
	}
	n.released = true
	n.kids = nil
	h, gen := n.handle, n.gen
	c := n.c
	c.mu.Lock()
	stale := c.closed || c.broken || c.gen != gen
	if !stale && (n.win != nil || c.cfg.BatchSize > 1) {
		// Batching on (for the client, or for the scan that produced this
		// node): queue the handle for piggybacked release on the next
		// request instead of paying a close round trip now.
		c.pendingRelease = append(c.pendingRelease, h)
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	if stale {
		return nil // the handle's session is already gone
	}
	_, _, err := c.roundTrip(Request{Op: "close", Handle: h}, gen)
	if err != nil && isTransient(err) {
		return nil
	}
	return err
}

func (n *RemoteNode) step(op string) (*RemoteNode, error) {
	if n == nil {
		return nil, fmt.Errorf("wire: navigation from ⊥")
	}
	resp, gen, err := n.c.do(Request{Op: op}, n)
	if err != nil {
		return nil, err
	}
	return n.c.node(resp, gen, n.path.extend(op)), nil
}

// ScanConfig tunes one batched child scan (DownScan). The zero value takes
// the client's defaults.
type ScanConfig struct {
	// BatchSize caps this scan's batch window; 0 takes
	// ClientConfig.BatchSize; 1 or negative disables batching for this scan.
	BatchSize int
	// Prefetch jumps this scan's window to the cap after its first batch
	// even when ClientConfig.Prefetch is off.
	Prefetch bool
	// Deep ships each frame's subtree with the batch, pre-populating
	// Materialize (federated source scans consume children whole, so the
	// subtree round trip would otherwise dominate).
	Deep bool
}

// Down evaluates d at the mediator. With batching enabled (the default) the
// first child arrives as a one-frame children batch that opens an adaptive
// read-ahead window over its siblings; with BatchSize 1 it is the classic
// single-step round trip.
func (n *RemoteNode) Down() (*RemoteNode, error) { return n.DownScan(ScanConfig{}) }

// DownScan evaluates d and opens a batched scan over the node's children:
// subsequent Right calls on the returned node (and its siblings) consume
// frames from an adaptive window that starts at one frame and doubles
// toward the batch-size cap while consumption continues — the paper's
// navigation-driven demand is the prefetch signal, so first-answer latency
// stays lazy and long scans amortize round trips. The window is the node's:
// a later DownScan that asks for no deeper frames walks the seats it holds,
// and a rescan of a drained node costs no round trip.
func (n *RemoteNode) DownScan(sc ScanConfig) (*RemoteNode, error) {
	if n == nil {
		return nil, fmt.Errorf("wire: navigation from ⊥")
	}
	size := sc.BatchSize
	if size == 0 {
		size = n.c.cfg.BatchSize
	}
	if size <= 1 {
		return n.step("down")
	}
	n.mu.Lock()
	w := n.kids
	// The window serves only the live handle it was filled under: a node
	// whose handle died with its connection, or a handleless one, has its
	// children listed afresh.
	if w == nil || sc.Deep && !w.deep || n.gen != n.c.liveGen() {
		w = newBatchWindow(n.c, n, size, sc.Prefetch || n.c.cfg.Prefetch, sc.Deep)
		n.kids = w
	}
	n.mu.Unlock()
	return w.get(0)
}

// Right evaluates r at the mediator. A node produced by a batched scan takes
// its next sibling from the window, which fetches the next batch when this
// one is used up; otherwise it is a single-step round trip.
func (n *RemoteNode) Right() (*RemoteNode, error) {
	if n == nil {
		return nil, fmt.Errorf("wire: navigation from ⊥")
	}
	if n.win != nil {
		return n.win.get(n.winIdx + 1)
	}
	return n.step("right")
}

// Up returns the parent.
func (n *RemoteNode) Up() (*RemoteNode, error) { return n.step("up") }

// QueryFrom issues an in-place query from this node (the q command) and
// returns the new result's root.
func (n *RemoteNode) QueryFrom(query string) (*RemoteNode, error) {
	if n == nil {
		return nil, fmt.Errorf("wire: query from ⊥")
	}
	resp, gen, err := n.c.do(Request{Op: "queryFrom", Query: query}, n)
	if err != nil {
		return nil, err
	}
	return n.c.node(resp, gen, nodePath{parent: n, query: query}), nil
}

// Materialize fetches the subtree below the node and renders it as XML.
// Nodes shipped by a Deep batch carry their subtree already; those render it
// without a round trip.
func (n *RemoteNode) Materialize() (string, error) {
	if n == nil {
		return "", fmt.Errorf("wire: materialize of ⊥")
	}
	t, err := n.subtree()
	if err != nil {
		return "", err
	}
	return xmlio.SerializeIndent(t), nil
}

// subtree returns the tree below the node. One a Deep batch shipped is
// decoded once and kept, so a rescan neither round-trips nor decodes again;
// any other node asks the mediator with the materialize op.
func (n *RemoteNode) subtree() (t *xtree.Node, err error) {
	n.mu.Lock()
	if n.hasEnc {
		defer n.mu.Unlock()
		if n.tree == nil {
			n.tree, err = decodeTree(n.enc, n.nodeID)
		}
		return n.tree, err
	}
	n.mu.Unlock()
	resp, _, err := n.c.do(Request{Op: "materialize"}, n)
	if err != nil {
		return nil, err
	}
	return decodeTree(resp.Tree, n.nodeID)
}
