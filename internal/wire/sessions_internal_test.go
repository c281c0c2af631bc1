package wire

import "testing"

// TestServeReqPanicReleasesInflight: a panic inside handle (here: an op on a
// session with no mediator) is answered as an error, recorded for ServeConn
// to drop the connection, and must not leave the inflight charge behind.
// Shedding skips in-flight sessions and Shutdown waits for them to drain, so
// one leaked unit would pin the session as busy forever and stall graceful
// drain.
func TestServeReqPanicReleasesInflight(t *testing.T) {
	srv := &Server{}
	sess := &session{srv: srv, nodes: map[int64]sessEntry{}}
	resp := srv.serveReq(sess, Request{ID: 7, Op: "open", View: "rootv"})
	if resp.OK || resp.ID != 7 || resp.Error == "" || sess.panicked == nil {
		t.Fatalf("panicking op answered %+v, recorded %v; want an error response and the panic", resp, sess.panicked)
	}
	if got := sess.inflight.Load(); got != 0 {
		t.Fatalf("inflight after a panicking op = %d, want 0 (charge leaked)", got)
	}
}
