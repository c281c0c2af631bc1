package wire

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync/atomic"
	"time"

	"mix"
)

// Defaults for the session-scale front end. Every admission/quota knob is
// off at its zero value: a Server with no limits set behaves exactly like
// the unlimited implementation, byte-for-byte on the wire.
const (
	// DefaultRetryAfter is the retry hint a busy response carries when
	// Server.RetryAfter is unset.
	DefaultRetryAfter = 50 * time.Millisecond
	// DefaultResumeWindow is how long an evicted or disconnected session's
	// resume token stays valid when Server.ResumeWindow is unset.
	DefaultResumeWindow = time.Minute
	// minShedIdle is the hard floor on how long a session must have been
	// idle before admission-pressure shedding may displace it; the
	// effective bar is shedAfter, which scales with SessionIdle. A session
	// actively mid-op is never shed.
	minShedIdle = 10 * time.Millisecond
	// DefaultShedIdle is the shed bar when SessionIdle is unset. It is
	// deliberately much larger than minShedIdle: under an arrival storm a
	// walking session can look "idle" for whole scheduler quanta between
	// its ops, and shedding those just trades one live session for another
	// — mutual-eviction thrash where nobody finishes. Only sessions parked
	// well past any plausible inter-op gap are fair game.
	DefaultShedIdle = 100 * time.Millisecond
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("wire: server closed")

// sessionRecord is what survives a session's eviction or disconnect: the
// resume token plus the accounting that rides along when the client comes
// back. Node handles do NOT survive — the reconnected client re-acquires
// them by replaying its recorded navigation paths (the redial machinery) —
// so a record is a few dozen bytes and parking thousands is cheap.
type sessionRecord struct {
	token   string
	retired time.Time // when the session left the live table
	opNanos int64
	resumes int64
}

// limitsOn reports whether any session-scale knob is set. With all knobs at
// their zero values the server runs the exact pre-session protocol: no
// admission step, no tokens, no per-op accounting.
func (s *Server) limitsOn() bool {
	return s.MaxSessions > 0 || s.SessionIdle > 0 || s.SessionMem > 0 || s.SessionOpTime > 0
}

func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return DefaultRetryAfter
}

func (s *Server) resumeWindow() time.Duration {
	if s.ResumeWindow > 0 {
		return s.ResumeWindow
	}
	return DefaultResumeWindow
}

// busyResponse is the typed admission rejection for request id.
func (s *Server) busyResponse(id int64) Response {
	return Response{
		ID:           id,
		OK:           false,
		Busy:         true,
		RetryAfterMs: s.retryAfter().Milliseconds(),
		Error:        "server busy: session limit reached, retry later",
	}
}

// newToken mints a resumable session token. Tokens are capability-style
// random strings: presenting one is the proof of ownership, so they must be
// unguessable.
func newToken() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// an unresumable session rather than a guessable token.
		return ""
	}
	return hex.EncodeToString(b[:])
}

// register adds a live session to the table (any mode).
func (s *Server) register(sess *session) {
	s.sessMu.Lock()
	s.registerLocked(sess)
	s.sessMu.Unlock()
}

func (s *Server) registerLocked(sess *session) {
	if s.sessions == nil {
		s.sessions = map[*session]struct{}{}
	}
	s.sessions[sess] = struct{}{}
	sess.admitted = true
	s.accepted.Add(1)
	if n := int64(len(s.sessions)); n > s.peak.Load() {
		s.peak.Store(n)
	}
}

// finish tears a session down at connection end: deregister, park its
// resume record (so a redialing client can still resume), and return its
// outstanding frame bytes to the server total. Idempotent with eviction.
func (s *Server) finish(sess *session) {
	s.sessMu.Lock()
	delete(s.sessions, sess)
	s.retireLocked(sess)
	s.sessMu.Unlock()
	s.memTotal.Add(-sess.drainMem())
}

// retireLocked parks sess's resume record (sessMu held; idempotent). A
// session without a token (server running without limits, or a failed token
// mint) leaves nothing behind.
func (s *Server) retireLocked(sess *session) {
	if sess.retired || sess.token == "" {
		return
	}
	sess.retired = true
	if s.resumable == nil {
		s.resumable = map[string]*sessionRecord{}
	}
	s.resumable[sess.token] = &sessionRecord{
		token:   sess.token,
		retired: s.now(),
		opNanos: sess.opNanos.Load(),
		resumes: sess.resumes,
	}
}

// admit runs admission control for a session's first request and reports
// whether the session may proceed. A resume op presenting a live token
// re-attaches the retired session's record and is admitted even at capacity
// — that session's load was accounted for when it was first admitted, and
// shedding rebalances any transient overshoot. A fresh session at capacity
// triggers graceful shedding (the idlest sheddable session is evicted to a
// resumable record); when nothing is sheddable the session is rejected with
// the typed busy response.
func (s *Server) admit(sess *session, req *Request) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.draining {
		return false
	}
	// Idleness counts from admission, not from connect: a session whose
	// first request arrived late must not be the next arrival's shed victim
	// before that request has run.
	sess.touch(s.now())
	if req.Op == "resume" && req.Token != "" {
		rec, ok := s.resumable[req.Token]
		if ok && s.now().Sub(rec.retired) > s.resumeWindow() {
			// The clock's pruning is garbage collection, not the source of
			// truth — a token past the window is dead even if its record is
			// still parked.
			delete(s.resumable, req.Token)
			ok = false
		}
		if ok {
			delete(s.resumable, req.Token)
			sess.token = rec.token
			sess.opNanos.Store(rec.opNanos)
			sess.resumes = rec.resumes + 1
			s.registerLocked(sess)
			s.resumed.Add(1)
			if s.MaxSessions > 0 && len(s.sessions) > s.MaxSessions {
				if v := s.shedCandidateLocked(sess); v != nil {
					s.evictLocked(v, &s.shed)
				}
			}
			return true
		}
		// Dead token (expired or never ours): fall through to fresh
		// admission; on success the resume response carries a new token.
		s.resumeExpired.Add(1)
	}
	if s.MaxSessions > 0 && len(s.sessions) >= s.MaxSessions {
		if v := s.shedCandidateLocked(sess); v != nil {
			s.evictLocked(v, &s.shed)
		}
		if len(s.sessions) >= s.MaxSessions {
			return false
		}
	}
	sess.token = newToken()
	s.registerLocked(sess)
	return true
}

// shedAfter is the idle bar admission-pressure shedding applies: half the
// idle-eviction threshold when one is set (a sheddable session is already
// halfway to eviction anyway), DefaultShedIdle otherwise, never below
// minShedIdle.
func (s *Server) shedAfter() time.Duration {
	if s.SessionIdle > 0 {
		if d := s.SessionIdle / 2; d > minShedIdle {
			return d
		}
		return minShedIdle
	}
	return DefaultShedIdle
}

// shedCandidateLocked picks the session to shed under admission pressure
// (sessMu held): the idlest session past shedAfter, heaviest outstanding
// frame bytes breaking ties. Sessions with an op in flight are never shed —
// graceful means idle work is displaced, not active work killed; over-quota
// active sessions are the eviction clock's job.
func (s *Server) shedCandidateLocked(exclude *session) *session {
	now := s.now()
	bar := s.shedAfter()
	var best *session
	var bestIdle time.Duration
	var bestMem int64
	for sess := range s.sessions {
		if sess == exclude || sess.token == "" || sess.inflight.Load() > 0 {
			continue
		}
		idle := now.Sub(sess.lastActiveTime())
		if idle < bar {
			continue
		}
		mem := sess.memNow()
		if best == nil || idle > bestIdle || (idle == bestIdle && mem > bestMem) {
			best, bestIdle, bestMem = sess, idle, mem
		}
	}
	return best
}

// evictLocked removes victim from the live table, parks its resume record,
// bumps counter, and closes its connection — which unblocks the session's
// read loop, so its goroutine winds down and finish reconciles the memory
// accounting. The victim's client sees a transport error, redials, and
// resumes with its token.
func (s *Server) evictLocked(victim *session, counter *atomic.Int64) {
	delete(s.sessions, victim)
	s.retireLocked(victim)
	counter.Add(1)
	if victim.closer != nil {
		_ = victim.closer.Close()
	}
}

// EvictIdle evicts every admitted session that has been idle (no request
// activity) for at least olderThan and has no op in flight, returning how
// many were evicted. The eviction clock calls this with Server.SessionIdle;
// tests and operators may call it directly.
func (s *Server) EvictIdle(olderThan time.Duration) int {
	now := s.now()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	n := 0
	for sess := range s.sessions {
		if sess.token == "" || sess.inflight.Load() > 0 {
			continue
		}
		if now.Sub(sess.lastActiveTime()) >= olderThan {
			s.evictLocked(sess, &s.idleEvicted)
			n++
		}
	}
	return n
}

// evictOverOpTime evicts sessions whose cumulative op wall-clock exceeded
// the quota. Unlike idle eviction this displaces heavy sessions, so it only
// fires between their ops (inflight 0): the op that crossed the line
// completes, then the session is evicted to a resumable record.
func (s *Server) evictOverOpTime(quota time.Duration) int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	n := 0
	for sess := range s.sessions {
		if sess.token == "" || sess.inflight.Load() > 0 {
			continue
		}
		if time.Duration(sess.opNanos.Load()) > quota {
			s.evictLocked(sess, &s.opTimeEvicted)
			n++
		}
	}
	return n
}

// pruneResumable drops resume records older than the resume window.
func (s *Server) pruneResumable() {
	cutoff := s.now().Add(-s.resumeWindow())
	s.sessMu.Lock()
	for token, rec := range s.resumable {
		if rec.retired.Before(cutoff) {
			delete(s.resumable, token)
		}
	}
	s.sessMu.Unlock()
}

// startClock starts the eviction clock once: a background ticker driving
// idle eviction, op-time-quota eviction, and resume-record expiry. Started
// lazily by the first session under limits; stopped by Shutdown/Close.
func (s *Server) startClock() {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if s.clockStop != nil || s.draining {
		return
	}
	stop := make(chan struct{})
	s.clockStop = stop
	interval := s.clockInterval()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.tick()
			}
		}
	}()
}

// clockInterval derives the tick period from the tightest enabled quota:
// a quarter of the smallest of SessionIdle/SessionOpTime, clamped to
// [5ms, 1s]; 250ms when neither is set (the clock then only prunes
// resume records).
func (s *Server) clockInterval() time.Duration {
	var d time.Duration
	pick := func(v time.Duration) {
		if v > 0 && (d == 0 || v < d) {
			d = v
		}
	}
	pick(s.SessionIdle)
	pick(s.SessionOpTime)
	if d == 0 {
		return 250 * time.Millisecond
	}
	d /= 4
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// tick is one eviction-clock step.
func (s *Server) tick() {
	if s.SessionIdle > 0 {
		s.EvictIdle(s.SessionIdle)
	}
	if s.SessionOpTime > 0 {
		s.evictOverOpTime(s.SessionOpTime)
	}
	s.pruneResumable()
}

func (s *Server) isDraining() bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.draining
}

// inflightOps sums ops currently executing across live sessions.
func (s *Server) inflightOps() int64 {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	var n int64
	for sess := range s.sessions {
		n += sess.inflight.Load()
	}
	return n
}

// Shutdown drains the server gracefully: stop accepting (Serve returns
// ErrServerClosed), reject new sessions with busy, stop the eviction clock,
// wait for in-flight ops to complete (bounded by ctx), then close every
// session connection. It returns ctx.Err() when the deadline cut the drain
// short and nil otherwise; safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sessMu.Lock()
	s.draining = true
	l := s.listener
	s.listener = nil
	stop := s.clockStop
	s.clockStop = nil
	s.sessMu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	if stop != nil {
		close(stop)
	}
	var err error
drain:
	for s.inflightOps() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-time.After(2 * time.Millisecond):
		}
	}
	s.sessMu.Lock()
	for sess := range s.sessions {
		delete(s.sessions, sess)
		s.retireLocked(sess)
		if sess.closer != nil {
			_ = sess.closer.Close()
		}
	}
	s.sessMu.Unlock()
	return err
}

// Close shuts the server down immediately: no drain wait, connections
// closed mid-op. Prefer Shutdown for production stops.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Shutdown(ctx)
	return nil
}

// SessionStats snapshots the session-lifecycle counters. NewServer
// registers this with the mediator, so Mediator.HealthReport carries the
// same numbers.
func (s *Server) SessionStats() mix.SessionStats {
	s.sessMu.Lock()
	live := int64(len(s.sessions))
	resumable := int64(len(s.resumable))
	s.sessMu.Unlock()
	return mix.SessionStats{
		Live:          live,
		Peak:          s.peak.Load(),
		Accepted:      s.accepted.Load(),
		RejectedBusy:  s.rejectedBusy.Load(),
		Shed:          s.shed.Load(),
		IdleEvicted:   s.idleEvicted.Load(),
		OpTimeEvicted: s.opTimeEvicted.Load(),
		Resumed:       s.resumed.Load(),
		ResumeExpired: s.resumeExpired.Load(),
		Resumable:     resumable,
		MemBytes:      s.memTotal.Load(),
	}
}

// serveReq runs one request with per-session accounting: activity
// timestamps bracket the op (the idle clock measures gaps between requests,
// not op duration), inflight guards the op against shedding, and the
// wall-clock spent is charged against the session's op-time quota. Only
// invoked under session limits — the unlimited path calls handle directly.
func (s *Server) serveReq(sess *session, req Request) Response {
	start := s.now()
	sess.touch(start)
	sess.inflight.Add(1)
	// Release in a defer: a panic inside handle (bad op payload, a source
	// blowing up mid-navigation) must not leave the session pinned as
	// in-flight forever — shedding skips in-flight sessions and Shutdown
	// drains them, so one leaked unit stalls graceful drain for good.
	defer func() {
		sess.inflight.Add(-1)
		end := s.now()
		sess.opNanos.Add(end.Sub(start).Nanoseconds())
		sess.touch(end)
	}()
	return sess.handle(req)
}

// isTemporaryNetErr matches transient accept failures (EMFILE, ECONNABORTED
// and friends) that an accept loop must back off from and outlive rather
// than die on. Matching our own interface instead of net.Error keeps us off
// the deprecated Temporary method of concrete error types we don't own.
func isTemporaryNetErr(err error) bool {
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}
