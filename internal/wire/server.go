package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mix"
)

// DefaultMaxHandles bounds one session's handle table. Handles are
// explicitly released by the close op (RemoteNode.Release, cursor Close);
// the bound turns a leaking client into a clear error instead of unbounded
// server memory.
const DefaultMaxHandles = 1 << 16

// DefaultMaxBatch caps the frames one children response may carry,
// whatever the client asks for.
const DefaultMaxBatch = 256

// frameOverhead is the per-frame envelope bound used when cutting a batch to
// the session's frame budget: a frame encodes to its raw string lengths plus
// a flag byte and at most five varints, so frameSize never underestimates.
const frameOverhead = 96

// sessBufSize is the per-session read buffer. Sessions number in the tens
// of thousands on a loaded server, so the buffer is deliberately smaller
// than the client's frameBufSize — readBinFrame reassembles frames of any size
// from it chunk by chunk, only per-session memory changes.
const sessBufSize = 16 << 10

// Server hosts a mediator for remote QDOM clients.
//
// The session-scale knobs (MaxSessions, SessionIdle, SessionMem,
// SessionOpTime) are all off at zero: the server then runs the exact
// unlimited protocol, with no admission step and no resume tokens. Setting
// any of them turns on the session front end: admission control with typed
// busy responses, quotas, an eviction clock, and resumable session tokens
// (see DESIGN.md "Sessions & admission control").
type Server struct {
	med *mix.Mediator

	// MaxFrame bounds one request frame in bytes; 0 means DefaultMaxFrame.
	// An oversized request gets an error response and the session
	// continues.
	MaxFrame int
	// MaxHandles bounds one session's handle table; 0 means
	// DefaultMaxHandles. Allocation past the bound fails with an error
	// telling the client to release handles.
	MaxHandles int
	// MaxBatch caps the frames one children response carries, whatever
	// the client's Max asks for; 0 means DefaultMaxBatch.
	MaxBatch int
	// ErrorLog, when set, receives per-connection failures (malformed
	// framing, I/O errors) that Serve would otherwise swallow.
	ErrorLog func(error)

	// MaxSessions bounds the concurrently admitted sessions; 0 means
	// unlimited. At the bound, a new session first tries to shed the idlest
	// sheddable session; failing that it is rejected with a typed busy
	// response carrying a retry-after hint, and the client retries with
	// jittered backoff.
	MaxSessions int
	// SessionIdle evicts sessions with no request activity for this long;
	// 0 disables idle eviction. Evicted sessions get a resume record: the
	// client redials, presents its token, and replays its navigation paths
	// onto fresh handles.
	SessionIdle time.Duration
	// SessionMem bounds one session's outstanding frame bytes (the
	// estimated wire size of every node frame whose handle the session
	// still holds); 0 means unlimited. Allocation past the bound fails with
	// an error telling the client to release handles; batched responses are
	// cut short with More=true instead, exactly like the handle bound.
	SessionMem int64
	// SessionOpTime bounds one session's cumulative op wall-clock time;
	// 0 means unlimited. A session over the quota is evicted (resumably) by
	// the eviction clock between its ops.
	SessionOpTime time.Duration
	// RetryAfter is the hint carried by busy responses; 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration
	// ResumeWindow is how long an evicted or disconnected session's resume
	// token stays valid; 0 means DefaultResumeWindow.
	ResumeWindow time.Duration
	// Clock overrides the session clock (tests); nil means time.Now.
	Clock func() time.Time

	sessMu    sync.Mutex
	sessions  map[*session]struct{}
	resumable map[string]*sessionRecord
	draining  bool
	listener  net.Listener
	clockStop chan struct{}

	// Session lifecycle counters, shared across session goroutines, the
	// eviction clock and stats readers — typed atomic cells, so the
	// compiler rejects plain access.
	peak          atomic.Int64
	memTotal      atomic.Int64
	accepted      atomic.Int64
	rejectedBusy  atomic.Int64
	shed          atomic.Int64
	idleEvicted   atomic.Int64
	opTimeEvicted atomic.Int64
	resumed       atomic.Int64
	resumeExpired atomic.Int64
}

// LiveHandles reports the node handles currently held across all active
// sessions. A well-behaved client releases every handle it was shipped, so
// tests assert this drains to zero (testleak.NoHandles) once their clients
// close.
func (s *Server) LiveHandles() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	n := 0
	for sess := range s.sessions {
		n += sess.handleCount()
	}
	return n
}

// NewServer wraps a mediator and registers the server's session counters
// with it, so Mediator.HealthReport surfaces admission/shed/resume activity
// next to source health.
func NewServer(med *mix.Mediator) *Server {
	s := &Server{med: med}
	med.SetSessionStats(s.SessionStats)
	return s
}

func (s *Server) maxFrame() int {
	if s.MaxFrame > 0 {
		return s.MaxFrame
	}
	return DefaultMaxFrame
}

func (s *Server) maxHandles() int {
	if s.MaxHandles > 0 {
		return s.MaxHandles
	}
	return DefaultMaxHandles
}

func (s *Server) maxBatch() int {
	if s.MaxBatch > 0 {
		return s.MaxBatch
	}
	return DefaultMaxBatch
}

func (s *Server) logErr(err error) {
	if s.ErrorLog != nil && err != nil {
		s.ErrorLog(err)
	}
}

// Serve accepts connections until the listener closes or Shutdown is
// called (then it returns ErrServerClosed). Each connection gets its own
// session (handle table); sessions are independent. Temporary accept
// failures (EMFILE, ECONNABORTED) are retried with capped exponential
// backoff instead of killing the server — one transient fd-exhaustion spike
// must not take every live session down with it. Per-connection failures
// are reported through ErrorLog.
func (s *Server) Serve(l net.Listener) error {
	s.sessMu.Lock()
	if s.draining {
		s.sessMu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.sessMu.Unlock()
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() {
				return ErrServerClosed
			}
			if isTemporaryNetErr(err) {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else {
					delay *= 2
				}
				if delay > time.Second {
					delay = time.Second
				}
				s.logErr(fmt.Errorf("wire: accept: %v; retrying in %v", err, delay))
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		go func() {
			defer conn.Close()
			if err := s.ServeConn(conn); err != nil {
				s.logErr(fmt.Errorf("wire: conn %v: %w", conn.RemoteAddr(), err))
			}
		}()
	}
}

// ServeConn runs one session over an arbitrary byte stream (tests use
// net.Pipe). It returns nil when the peer closes cleanly and the terminal
// error otherwise. Oversized request frames are answered with an error
// response and the session continues.
//
// Under session limits, the first request is the admission point: a resume
// op re-attaches an evicted session's record, anything else is admitted
// fresh if capacity (after shedding) allows, and a rejected session gets
// one typed busy response before the connection closes.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	sess := &session{
		med:        s.med,
		srv:        s,
		nodes:      map[int64]sessEntry{},
		maxHandles: s.maxHandles(),
		maxBatch:   s.maxBatch(),
		maxFrame:   s.maxFrame(),
	}
	if c, ok := conn.(io.Closer); ok {
		sess.closer = c
	}
	limits := s.limitsOn()
	if limits {
		sess.memQuota = s.SessionMem
		sess.touch(s.now())
		s.startClock()
	} else {
		// Unlimited mode: tracked from the first byte, exactly as before.
		s.register(sess)
	}
	defer s.finish(sess)
	in := bufio.NewReaderSize(conn, sessBufSize)
	var binBuf []byte // reused response frame buffer
	reply := func(resp Response) error {
		binBuf = encodeResponse(frameStart(binBuf), &resp)
		return writeBinFrame(conn, binBuf)
	}
	for {
		frame, err := readBinFrame(in, s.maxFrame())
		if err != nil {
			var tooBig *FrameTooLargeError
			if errors.As(err, &tooBig) {
				if rerr := reply(Response{OK: false, Error: tooBig.Error()}); rerr != nil {
					return rerr
				}
				continue
			}
			if err == io.EOF {
				return nil
			}
			return err
		}
		var resp Response
		req, derr := decodeRequest(frame)
		if derr != nil {
			resp = Response{OK: false, Error: "malformed request: " + derr.Error()}
		} else if limits {
			if !sess.admitted {
				if !s.admit(sess, &req) {
					s.rejectedBusy.Add(1)
					if rerr := reply(s.busyResponse(req.ID)); rerr != nil {
						return rerr
					}
					return nil // rejected: drop the connection
				}
				// The freshly minted (or resumed) token rides on this
				// session's first response.
				sess.tokenPending = true
			}
			resp = s.serveReq(sess, req)
		} else {
			resp = sess.handle(req)
		}
		if resp.OK {
			// Piggyback the mediator's data version so client node caches
			// validate for free on every successful round trip.
			resp.DataVersion = s.med.DataVersion()
			if sess.tokenPending {
				resp.Token = sess.token
				sess.tokenPending = false
			}
		}
		if err := reply(resp); err != nil {
			return err
		}
		if sess.panicked != nil {
			return sess.panicked // answered above; drop this connection only
		}
	}
}

// session is one connection's state: the handle table associating client
// handles with mediator-side nodes (the thin-client contract of Section 2).
// The table is bounded; clients release handles with the close op. Under
// session limits the table is additionally bounded in estimated frame bytes
// (memQuota), and the session carries its admission state: the resume
// token, activity/op-time accounting the eviction clock reads, and the
// in-flight guard that keeps shedding away from active ops.
type session struct {
	med        *mix.Mediator
	srv        *Server
	maxHandles int
	maxBatch   int
	maxFrame   int
	memQuota   int64
	closer     io.Closer

	// Admission state, written only by the session's own serving goroutine
	// (token/resumes additionally under srv.sessMu at admission, where the
	// eviction clock reads them; retired is guarded by srv.sessMu).
	token        string
	admitted     bool
	tokenPending bool
	resumes      int64
	retired      bool

	// Cross-goroutine accounting cells: the serving goroutine writes, the
	// eviction clock and shedder read.
	lastActive atomic.Int64 // unix nanos of the last request boundary
	inflight   atomic.Int64
	opNanos    atomic.Int64

	// panicked holds a panic recovered while handling a request (serving
	// goroutine only); ServeConn returns it once the error response is out.
	panicked error
	// tree is the buffer subtrees are encoded in (serving goroutine only).
	tree []byte

	mu       sync.Mutex
	nodes    map[int64]sessEntry
	nextID   int64
	memBytes int64
}

// sessEntry is one held handle plus its estimated outstanding frame bytes,
// credited back on release.
type sessEntry struct {
	n    *mix.Node
	cost int64
}

func (s *session) touch(t time.Time) { s.lastActive.Store(t.UnixNano()) }

func (s *session) lastActiveTime() time.Time { return time.Unix(0, s.lastActive.Load()) }

// memNow reads the session's outstanding frame bytes.
func (s *session) memNow() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memBytes
}

// drainMem zeroes the session's memory accounting at teardown and returns
// what was outstanding, so the server total reconciles exactly once.
func (s *session) drainMem() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.memBytes
	s.memBytes = 0
	s.nodes = map[int64]sessEntry{}
	return v
}

func (s *session) put(n *mix.Node, cost int64) (int64, bool, error) {
	if n == nil {
		return 0, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nodes) >= s.maxHandles {
		return 0, false, fmt.Errorf("session handle limit %d reached: release handles (close op / RemoteNode.Release / cursor Close)", s.maxHandles)
	}
	if s.memQuota > 0 && s.memBytes+cost > s.memQuota {
		return 0, false, fmt.Errorf("session memory quota %d bytes reached: release handles (close op / RemoteNode.Release / cursor Close)", s.memQuota)
	}
	s.nextID++
	s.nodes[s.nextID] = sessEntry{n: n, cost: cost}
	s.memBytes += cost
	if s.srv != nil {
		s.srv.memTotal.Add(cost)
	}
	return s.nextID, true, nil
}

func (s *session) get(h int64) (*mix.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.nodes[h]
	if !ok {
		return nil, fmt.Errorf("unknown handle %d", h)
	}
	return e.n, nil
}

func (s *session) release(h int64) {
	s.mu.Lock()
	e, ok := s.nodes[h]
	if ok {
		delete(s.nodes, h)
		s.memBytes -= e.cost
	}
	s.mu.Unlock()
	if ok && s.srv != nil {
		s.srv.memTotal.Add(-e.cost)
	}
}

// handleCount reports the live handle count (diagnostics/tests).
func (s *session) handleCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

func (s *session) handle(req Request) (resp Response) {
	// Queries, views and sources run below: a panic in any of them costs this
	// request an error response and this connection, never the process.
	defer func() {
		if p := recover(); p != nil {
			s.panicked = fmt.Errorf("wire: panic serving %s: %v\n%s", req.Op, p, debug.Stack())
			resp = Response{ID: req.ID, Error: fmt.Sprintf("internal error serving %s: %v", req.Op, p)}
		}
	}()
	// Piggybacked releases run before the op: a batch consumer frees the
	// frames it is done with on its next request instead of paying one close
	// round trip per frame, and the freed slots are available to the op
	// below (matters under a tight MaxHandles).
	for _, h := range req.Release {
		s.release(h)
	}
	resp = Response{ID: req.ID, OK: true}
	fail := func(err error) Response {
		return Response{ID: req.ID, OK: false, Error: err.Error()}
	}
	nodeResp := func(n *mix.Node) Response {
		var cost int64
		if n != nil {
			f := NodeFrame{Label: n.Label(), NodeID: n.ID()}
			if v, isLeaf := n.Value(); isLeaf {
				f.Value = v
			}
			cost = int64(frameSize(f))
		}
		h, ok, err := s.put(n, cost)
		if err != nil {
			return fail(err)
		}
		if !ok {
			resp.Nil = true
			return resp
		}
		resp.Handle = h
		resp.Label = n.Label()
		resp.NodeID = n.ID()
		resp.IsLeaf = n.IsLeaf()
		if v, isLeaf := n.Value(); isLeaf {
			resp.Value = v
		}
		return resp
	}

	switch req.Op {
	case "ping":
		return resp
	case "resume":
		// Idempotent: admission (the session's first request) already did
		// the re-attach work; on an admitted session the op just confirms
		// the token. On a server without session limits it is a no-op
		// carrying no token, telling the client to drop its stale one.
		resp.Token = s.token
		return resp
	case "open":
		doc, err := s.med.Open(req.View)
		if err != nil {
			return fail(err)
		}
		return nodeResp(doc.Root())
	case "query":
		doc, err := s.med.Query(req.Query)
		if err != nil {
			return fail(err)
		}
		return nodeResp(doc.Root())
	case "queryFrom":
		n, err := s.get(req.Handle)
		if err != nil {
			return fail(err)
		}
		doc, err := s.med.QueryFrom(n, req.Query)
		if err != nil {
			return fail(err)
		}
		return nodeResp(doc.Root())
	case "down", "right", "up":
		n, err := s.get(req.Handle)
		if err != nil {
			return fail(err)
		}
		var next *mix.Node
		switch req.Op {
		case "down":
			next = n.Down()
		case "right":
			next = n.Right()
		case "up":
			next = n.Up()
		}
		if next == nil {
			// ⊥ is the end only while the document is sound: a step that
			// stopped on a source failure answers with the failure.
			if err := n.Doc().Err(); err != nil {
				return fail(err)
			}
		}
		return nodeResp(next)
	case "children":
		// Batched d+r*: up to Max sibling frames starting at the Skip-th
		// child of Handle. Production is demand-driven — ChildStream forces
		// exactly the children the batch ships (plus a one-node peek to set
		// More), so a client that stops scanning never forces the rest.
		n, err := s.get(req.Handle)
		if err != nil {
			return fail(err)
		}
		if req.Skip < 0 {
			return fail(fmt.Errorf("children: negative skip %d", req.Skip))
		}
		return s.batchResp(req, n)
	case "materialize":
		n, err := s.get(req.Handle)
		if err != nil {
			return fail(err)
		}
		resp.Tree = s.encodeTree(n)
		return resp
	case "close":
		// Idempotent: releasing an unknown or already-released handle is a
		// no-op, so retries and post-reconnect releases are always safe.
		s.release(req.Handle)
		return resp
	case "stats":
		st := s.med.Stats()
		resp.TuplesShipped = st.TuplesShipped
		resp.QueriesReceived = st.QueriesReceived
		return resp
	}
	return fail(fmt.Errorf("unknown op %q", req.Op))
}

// encodeTree forces n's subtree and returns it in the tree encoding.
func (s *session) encodeTree(n *mix.Node) string {
	s.tree = n.Elem().AppendTree(s.tree[:0])
	return string(s.tree)
}

func frameSize(f NodeFrame) int {
	return frameOverhead + len(f.Label) + len(f.NodeID) + len(f.Value) + len(f.Tree)
}

// frameAppender accumulates a Response's Frames under the session's
// frame-count cap and byte budget. It is the only place in the package
// that grows Frames, so every batch-cutting path respects MaxFrame/MaxBatch
// (TestDeepBatchTagDenseWithinMaxFrame fails on a batch grown around it).
type frameAppender struct {
	resp   *Response
	max    int // frame-count cap for this batch
	budget int // byte budget across frame payloads
	used   int
}

func newFrameAppender(resp *Response, max, maxFrame int) *frameAppender {
	// Leave headroom for the response's own tagged fields.
	return &frameAppender{resp: resp, max: max, budget: maxFrame - maxFrame/8}
}

// full reports whether the batch reached its frame-count cap.
func (fa *frameAppender) full() bool { return len(fa.resp.Frames) >= fa.max }

// fits reports whether f fits the remaining byte budget. The first frame
// always fits: a batch that cannot ship even one frame is a protocol
// failure handled by the caller, not a budget cut.
func (fa *frameAppender) fits(f NodeFrame) bool {
	return len(fa.resp.Frames) == 0 || fa.used+frameSize(f) <= fa.budget
}

// add appends f, charging its size against the budget. Callers must check
// fits first; add itself never cuts.
func (fa *frameAppender) add(f NodeFrame) {
	fa.used += frameSize(f)
	fa.resp.Frames = append(fa.resp.Frames, f)
}

// batchResp cuts one children batch of parent from child req.Skip on.
// Frames accumulate until the client's Max, the server's MaxBatch, the
// frame-size budget, or the handle table or session memory quota ends the
// batch. A budget or handle-table cut ships a partial batch with More=true —
// the unshipped node holds no handle and the client re-derives it in the
// next batch — and only a batch that cannot fit a single frame fails. A
// source failure cuts the batch the same way: the frames before it ship with
// More=true, and the batch that finds no child answers with the failure. A
// batch ended by Max peeks one node ahead so More is definitive and the
// client never pays an empty confirming round trip; the peeked node's
// production is cached, so re-deriving it later is free.
func (s *session) batchResp(req Request, parent *mix.Node) Response {
	resp := Response{ID: req.ID, OK: true}
	max := req.Max
	if max < 1 {
		max = 1
	}
	if max > s.maxBatch {
		max = s.maxBatch
	}
	fa := newFrameAppender(&resp, max, s.maxFrame)
	next := parent.ChildStream(req.Skip)
	for !fa.full() {
		n := next()
		if n == nil {
			// The children ended, or a source failed producing the next one.
			if err := parent.Doc().Err(); err != nil {
				if len(resp.Frames) == 0 {
					return Response{ID: req.ID, OK: false, Error: err.Error()}
				}
				resp.More = true // the next batch answers with the failure
			}
			return resp
		}
		f := NodeFrame{Label: n.Label(), NodeID: n.ID(), IsLeaf: n.IsLeaf()}
		if v, isLeaf := n.Value(); isLeaf {
			f.Value = v
		}
		if req.Deep {
			f.Tree = s.encodeTree(n)
		}
		if !fa.fits(f) {
			resp.More = true
			return resp
		}
		h, _, err := s.put(n, int64(frameSize(f)))
		if err != nil {
			if len(resp.Frames) > 0 {
				resp.More = true
				return resp
			}
			return Response{ID: req.ID, OK: false, Error: err.Error()}
		}
		f.Handle = h
		fa.add(f)
	}
	resp.More = next() != nil || parent.Doc().Err() != nil
	return resp
}
