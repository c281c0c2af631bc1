// Package wire implements the client/server split of the MIX system: the
// paper's mediator is a server and "a thin client-side library associates
// with each p_i the object id of the corresponding object exported by the
// mediator" (Section 2). The server exports QDOM as one request frame and
// one response frame per command, length-prefixed and binary from the first
// byte of a connection (codec.go; the paper fixes what crosses this boundary,
// not its encoding, so there is one and nothing is negotiated); the client
// library exposes the same Down/Right/Label/Value/QueryFrom surface as the
// in-process API, with node handles standing in for the client-resident
// objects.
//
// Laziness crosses the wire: a navigation command evaluates exactly one
// QDOM step at the mediator, so remote clients get the same demand-driven
// source access as local ones. The batched children op amortizes the
// per-step round trip without giving up that demand-driven shape: a batch
// carries up to Max sibling frames, the client's adaptive read-ahead starts
// at one frame (first-answer latency stays lazy) and grows geometrically
// only while the client keeps scanning — navigation demand itself is the
// prefetch signal. A Deep batch (federated source scans) ships each frame's
// whole subtree in the tree encoding (xtree.TreeElem), written by the server
// straight from the rows it holds and rebuilt by the client with no XML in
// between.
//
// The protocol assumes nothing about the network: frames are length-bounded
// (FrameTooLargeError), every client op runs under a deadline, idempotent
// ops retry with backoff, a lost connection is redialed and node handles
// are re-acquired by replaying recorded navigation paths, and a circuit
// breaker fails fast while an endpoint is down (see ClientConfig and
// DESIGN.md's Resilience section). Handles are explicitly released with the
// close op so sessions stay bounded.
//
// The server side scales to session counts well past what one mediator can
// serve at once: admission control bounds the live sessions (typed busy
// responses carry a retry-after hint the client's backoff honours),
// per-session quotas cap handles, outstanding frame bytes and cumulative op
// time, an eviction clock sheds idle or over-quota sessions gracefully, and
// resumable session tokens let an evicted client reconnect, resume, and
// replay its navigation paths onto fresh handles with no user-visible
// failure (see DESIGN.md's "Sessions & admission control").
package wire

// Request is one client command.
type Request struct {
	ID int64
	// Op is the command: open, query, queryFrom, down, right, up,
	// materialize, children, stats, ping, close, resume.
	// close releases the node handle it names and is idempotent. children
	// is the batched navigation op: it returns up to Max sibling frames
	// starting at the Skip-th child of Handle. resume presents a
	// session token (Token) as the first request of a reconnected session so
	// an evicted client re-attaches its session record; it is idempotent and
	// a no-op on servers without session limits.
	Op string
	// View names the view for open.
	View string
	// Query carries the query text for query/queryFrom.
	Query string
	// Handle identifies the node for navigation and queryFrom.
	Handle int64
	// Skip is the child index a children batch starts at.
	Skip int
	// Max caps the number of frames a children batch may carry. The
	// server caps it further by its own batch, handle-table and frame
	// budgets; 0 means 1.
	Max int
	// Deep asks children to ship each frame's subtree in the tree encoding
	// alongside the navigation fields (federated source scans).
	Deep bool
	// Release piggybacks node handles to free before the op runs: consumed
	// batch frames ride along on the next request instead of costing one
	// close round trip each. Releasing an unknown handle is a no-op.
	Release []int64
	// Token carries the resumable session token for the resume op.
	Token string
}

// NodeFrame is one node of a batched children response: the same
// piggybacked navigation fields a single-step response carries, plus the
// subtree under Deep.
type NodeFrame struct {
	Handle int64
	Label  string
	NodeID string
	IsLeaf bool
	Value  string
	// Tree is the node's whole subtree in the tree encoding
	// (xtree.TreeElem): labels and structure exactly as the mediator holds
	// them, no ids; the client numbers the ids (see decodeTree).
	Tree string
}

// Response answers one request.
type Response struct {
	ID    int64
	OK    bool
	Error string

	// Busy marks an admission rejection: the server is at its session limit
	// (or draining) and the op was never executed, so any op may be retried
	// after RetryAfterMs milliseconds. The server closes the connection
	// behind a busy response; the client redials on retry. The client
	// surfaces Busy as *ServerBusyError and retries with jittered backoff.
	Busy         bool
	RetryAfterMs int64

	// Token is the session's resumable token, sent once on the first
	// response after admission (and echoed by the resume op) when the
	// server runs with session limits. An evicted client presents it in a
	// resume request after redialing to re-attach its session record.
	Token string

	// Handle is the node handle produced by open/query/queryFrom/down/
	// right/up. Null (0 with Nil=true) encodes the paper's ⊥.
	Handle int64
	Nil    bool

	Label  string
	Value  string
	IsLeaf bool
	NodeID string
	// Tree answers materialize: the subtree in the tree encoding.
	Tree string

	// DataVersion is the serving mediator's monotonic data version
	// (registrations plus every relational store's mutation count),
	// piggybacked on every successful response. Clients with a navigation
	// node cache compare it against the last observed value and purge on
	// change, so cache validation costs no dedicated round trip — any op
	// (ping included) doubles as the version check.
	DataVersion int64

	// Frames carries a children batch in sibling order.
	Frames []NodeFrame
	// More reports that siblings remain past the last frame (the batch was
	// cut by Max or by a server budget, not by exhaustion).
	More bool

	TuplesShipped   int64
	QueriesReceived int64
}
