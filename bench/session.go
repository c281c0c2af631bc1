package main

import (
	"runtime"
	"time"

	"mix"
	"mix/internal/wire"
)

// node is the part of the QDOM interface a script uses. It has two
// implementations so one script runs over the wire (*wire.RemoteNode) and in
// process (*mix.Node): the oracle, mix.local_session_us and the remote
// session all execute the same code.
type node interface {
	Down() (node, error)
	Right() (node, error)
	Label() string
	Value() (string, bool)
	QueryFrom(q string) (node, error)
	Release() error
}

// opener starts a script: a wire client or a mediator.
type opener interface {
	Open(view string) (node, error)
	Query(q string) (node, error)
}

type remoteNode struct{ n *wire.RemoteNode }

func wrapRemote(n *wire.RemoteNode, err error) (node, error) {
	if err != nil || n == nil {
		return nil, err
	}
	return remoteNode{n}, nil
}

func (r remoteNode) Down() (node, error)              { return wrapRemote(r.n.Down()) }
func (r remoteNode) Right() (node, error)             { return wrapRemote(r.n.Right()) }
func (r remoteNode) Label() string                    { return r.n.Label() }
func (r remoteNode) Value() (string, bool)            { return r.n.Value() }
func (r remoteNode) QueryFrom(q string) (node, error) { return wrapRemote(r.n.QueryFrom(q)) }
func (r remoteNode) Release() error                   { return r.n.Release() }

type remoteOpener struct{ c *wire.Client }

func (o remoteOpener) Open(view string) (node, error) { return wrapRemote(o.c.Open(view)) }
func (o remoteOpener) Query(q string) (node, error)   { return wrapRemote(o.c.Query(q)) }

type localNode struct {
	med *mix.Mediator
	n   *mix.Node
}

// wrap turns a navigation result into a node; ⊥ (nil) carries the document's
// error, which is how a failed source scan shows up in process.
func (l localNode) wrap(c *mix.Node) (node, error) {
	if c == nil {
		return nil, l.n.Doc().Err()
	}
	return localNode{l.med, c}, nil
}

func (l localNode) Down() (node, error)   { return l.wrap(l.n.Down()) }
func (l localNode) Right() (node, error)  { return l.wrap(l.n.Right()) }
func (l localNode) Label() string         { return l.n.Label() }
func (l localNode) Value() (string, bool) { return l.n.Value() }

func (l localNode) QueryFrom(q string) (node, error) {
	doc, err := l.med.QueryFrom(l.n, q)
	if err != nil {
		return nil, err
	}
	return localNode{l.med, doc.Root()}, nil
}

// Release closes the document when its root is released; other nodes hold
// nothing in process.
func (l localNode) Release() error {
	if l.n.IsRoot() {
		l.n.Doc().Close()
	}
	return nil
}

type localOpener struct{ med *mix.Mediator }

func (o localOpener) Open(view string) (node, error) {
	doc, err := o.med.Open(view)
	if err != nil {
		return nil, err
	}
	return localNode{o.med, doc.Root()}, nil
}

func (o localOpener) Query(q string) (node, error) {
	doc, err := o.med.Query(q)
	if err != nil {
		return nil, err
	}
	return localNode{o.med, doc.Root()}, nil
}

// script is one session's inputs, a pure function of (seed, index).
type script struct {
	k int    // browse: CustRecs walked before the in-place query
	q string // the script's seeded query: in-place (browse), Fig12 (report), point (fleet)
}

// session runs one script and accounts for it: wall time, time to the first
// answer and to the first in-place answer, nodes visited, and a transcript
// hash of every label and leaf value in visiting order, which is what the
// oracle compares. The hash restarts at each mark so that one answer can be
// compared on its own (replay parity).
type session struct {
	tr      *tracer
	script  int
	root    int // the session's own span, parent of its op spans
	ops     *opNames
	perCall bool // a span per navigation call; in process only the few planning calls get one

	start   time.Time
	first   time.Duration
	inplace time.Duration
	calls   time.Duration // inside open/query/queryFrom; the rest of the session is navigation
	settled time.Duration // inside settle: not the session's time
	nodes   int
	h       uint64
	marks   []uint64
	err     error

	// meter, when set, reads the tuples the sources have shipped so far; each
	// mark then also records what its answer shipped (replay parity).
	meter   func() int64
	metered int64
	shipped []int64
}

// sample is what a finished session leaves behind.
type sample struct {
	script                     int
	total, first, inplace, nav time.Duration
	nodes                      int
	hash                       uint64
	marks                      []uint64
	shipped                    []int64 // per mark, when the session was metered
	err                        error
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (s *session) begin(tr *tracer, script int, remote bool) {
	*s = session{
		tr: tr, script: script, marks: s.marks[:0], h: fnvOffset, ops: &mixOps,
		meter: s.meter, shipped: s.shipped[:0],
	}
	name := "session.local"
	if remote {
		s.ops, s.perCall, name = &wireOps, tr != nil, "session.wire"
	}
	if s.meter != nil {
		s.metered = s.meter()
	}
	s.root = tr.begin(name, script, -1)
	s.start = time.Now()
}

func (s *session) finish() sample {
	s.tr.end(s.root)
	total := time.Since(s.start) - s.settled
	h := uint64(fnvOffset)
	for _, m := range s.marks {
		h = (h ^ m) * fnvPrime
	}
	return sample{
		script: s.script, total: total, first: s.first, inplace: s.inplace, nav: total - s.calls,
		nodes: s.nodes, hash: h, marks: append([]uint64(nil), s.marks...),
		shipped: append([]int64(nil), s.shipped...), err: s.err,
	}
}

func (s *session) fold(str string, sep byte) {
	h := s.h
	for i := 0; i < len(str); i++ {
		h = (h ^ uint64(str[i])) * fnvPrime
	}
	s.h = (h ^ uint64(sep)) * fnvPrime
}

// mark closes one answer's transcript.
func (s *session) mark() {
	s.marks = append(s.marks, s.h)
	s.h = fnvOffset
	if s.meter != nil {
		now := s.meter()
		s.shipped = append(s.shipped, now-s.metered)
		s.metered = now
	}
}

// opNames are the span names of the script's calls into one layer.
type opNames struct{ open, query, queryFrom, release, down, right string }

var (
	wireOps = opNames{"wire.op.open", "wire.op.query", "wire.op.queryFrom", "wire.op.release", "wire.op.down", "wire.op.right"}
	mixOps  = opNames{"mix.op.open", "mix.op.query", "mix.op.queryFrom", "mix.op.release", "mix.op.down", "mix.op.right"}
)

// settle runs a collection before a planning call whose span replay parity
// will compare with the replay's stages (the traced in-process pass; the
// replayer does the same). A planning call allocates too little to start a
// cycle itself, but a cycle the script's earlier work started runs on into it
// and its assists slow allocation by half; and since every script allocates
// about the same, a run can lock into that phase for most of its scripts.
// The collection's time is taken out of the session's.
func (s *session) settle() {
	if s.tr == nil || s.perCall {
		return
	}
	t := time.Now()
	runtime.GC()
	s.settled += time.Since(t)
}

// planned books the time of one of the session's few planning calls (open,
// query, queryFrom): navigation time is the session minus these.
func (s *session) planned(t time.Time, n node, err error) node {
	s.calls += time.Since(t)
	s.err = err
	return n
}

func (s *session) open(o opener, view string) node {
	if s.err != nil {
		return nil
	}
	s.settle()
	id, t := s.tr.begin(s.ops.open, s.script, s.root), time.Now()
	n, err := o.Open(view)
	s.tr.end(id)
	return s.planned(t, n, err)
}

func (s *session) query(o opener, q string) node {
	if s.err != nil {
		return nil
	}
	s.settle()
	id, t := s.tr.begin(s.ops.query, s.script, s.root), time.Now()
	n, err := o.Query(q)
	s.tr.end(id)
	return s.planned(t, n, err)
}

func (s *session) queryFrom(from node, q string) node {
	if from == nil || s.err != nil {
		return nil
	}
	s.settle()
	id, t := s.tr.begin(s.ops.queryFrom, s.script, s.root), time.Now()
	n, err := from.QueryFrom(q)
	s.tr.end(id)
	return s.planned(t, n, err)
}

// callSpan opens a span for one navigation call when the session traces per
// call, and reads no clock otherwise.
func (s *session) callSpan(name string) int {
	if !s.perCall {
		return -1
	}
	return s.tr.begin(name, s.script, s.root)
}

func (s *session) down(n node) node {
	if n == nil || s.err != nil {
		return nil
	}
	id := s.callSpan(s.ops.down)
	c, err := n.Down()
	s.tr.end(id)
	s.err = err
	return c
}

func (s *session) right(n node) node {
	if n == nil || s.err != nil {
		return nil
	}
	id := s.callSpan(s.ops.right)
	c, err := n.Right()
	s.tr.end(id)
	s.err = err
	return c
}

func (s *session) release(n node) {
	if n == nil {
		return
	}
	id := s.callSpan(s.ops.release)
	err := n.Release()
	s.tr.end(id)
	if s.err == nil {
		s.err = err
	}
}

// visit folds one node into the transcript.
func (s *session) visit(n node) {
	if n == nil {
		return
	}
	s.nodes++
	s.fold(n.Label(), 0)
	if v, ok := n.Value(); ok {
		s.fold(v, 1)
	}
}

// walk visits the subtree under n in document order and releases every node
// below n once its own subtree is done; n stays with the caller.
func (s *session) walk(n node) {
	if n == nil {
		return
	}
	s.visit(n)
	for c := s.down(n); c != nil; {
		s.walk(c)
		next := s.right(c)
		s.release(c)
		c = next
	}
}

// firstAnswer stamps the time to the session's first result.
func (s *session) firstAnswer() {
	if s.first == 0 {
		s.first = time.Since(s.start) - s.settled
	}
}

// drain walks a whole answer from its root, stamps the first answer, closes
// the answer's transcript and releases the root.
func (s *session) drain(root node) {
	if root == nil {
		return
	}
	s.visit(root)
	c := s.down(root)
	s.firstAnswer()
	for c != nil {
		s.walk(c)
		next := s.right(c)
		s.release(c)
		c = next
	}
	s.mark()
	s.release(root)
}
