package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mix"
	"mix/internal/source"
)

// The tests in this file speak the protocol by hand, where what matters is
// exactly what a server answers to frames no client would send.

// rawFrame writes req as one length-prefixed frame on conn and decodes the
// one frame that comes back.
func rawFrame(t *testing.T, conn io.ReadWriter, req Request) Response {
	t.Helper()
	return rawPayload(t, conn, encodeRequest(nil, &req))
}

// rawPayload is rawFrame for payloads encodeRequest would not produce.
func rawPayload(t *testing.T, conn io.ReadWriter, payload []byte) Response {
	t.Helper()
	resp, err := decodeResponse(rawAnswer(t, conn, payload))
	if err != nil {
		t.Fatalf("garbled response frame: %v", err)
	}
	return resp
}

// rawAnswer writes payload as one frame and returns the answering frame's
// payload as it arrived.
func rawAnswer(t *testing.T, conn io.ReadWriter, payload []byte) []byte {
	t.Helper()
	if _, err := conn.Write(frameOf(payload)); err != nil {
		t.Fatal(err)
	}
	var hdr [binLenSize]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	answer := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, answer); err != nil {
		t.Fatal(err)
	}
	return answer
}

// rawServer serves a two-child view rootv; connect opens one more session on
// it and returns the client end together with ServeConn's eventual result.
func rawServer(t *testing.T, tune func(*Server, *mix.Mediator)) (connect func() (net.Conn, <-chan error)) {
	t.Helper()
	med := mix.New()
	if err := med.AddXMLSource("&x", "<doc><a>1</a><a>2</a></doc>"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", "FOR $A IN document(&x)/a RETURN $A"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(med)
	if tune != nil {
		tune(srv, med)
	}
	return func() (net.Conn, <-chan error) {
		server, client := net.Pipe()
		served := make(chan error, 1)
		go func() {
			defer server.Close()
			served <- srv.ServeConn(server)
		}()
		t.Cleanup(func() { client.Close() })
		return client, served
	}
}

// TestProtocolRobustness: malformed requests and unknown ops/handles get
// error responses without killing the session.
func TestProtocolRobustness(t *testing.T) {
	client, _ := rawServer(t, nil)()
	if resp := rawPayload(t, client, []byte("{not a frame")); resp.OK || !strings.Contains(resp.Error, "malformed") {
		t.Fatalf("malformed request response: %+v", resp)
	}
	if resp := rawFrame(t, client, Request{ID: 1, Op: "teleport"}); resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("unknown op response: %+v", resp)
	}
	if resp := rawFrame(t, client, Request{ID: 2, Op: "down", Handle: 999}); resp.OK || !strings.Contains(resp.Error, "unknown handle") {
		t.Fatalf("unknown handle response: %+v", resp)
	}
	if resp := rawFrame(t, client, Request{ID: 3, Op: "ping"}); !resp.OK {
		t.Fatalf("session died after errors: %+v", resp)
	}
}

// TestServerFrameLimit: an oversized request frame gets an error response
// and the session keeps serving.
func TestServerFrameLimit(t *testing.T) {
	client, _ := rawServer(t, func(s *Server, _ *mix.Mediator) { s.MaxFrame = 1024 })()
	big := Request{ID: 1, Op: "query", Query: strings.Repeat("x", 4096)}
	if resp := rawFrame(t, client, big); resp.OK || !strings.Contains(resp.Error, "frame exceeds") {
		t.Fatalf("oversized request response: %+v", resp)
	}
	if resp := rawFrame(t, client, Request{ID: 2, Op: "ping"}); !resp.OK {
		t.Fatalf("session died after oversized frame: %+v", resp)
	}
}

// TestLimitsOffParity: responses of a limit-less server must not carry the
// session-front-end fields at all (no token, no busy, no retry hint) — the
// knobs-off wire format is the pre-session protocol's. Checked on the bytes:
// a decoded zero cannot tell an absent field from a tag with a zero value
// behind it, so the frame must also be exactly what encoding the decoded
// response gives, which writes no tag for a zero field.
func TestLimitsOffParity(t *testing.T) {
	client, _ := rawServer(t, nil)()
	for _, req := range []Request{
		{ID: 1, Op: "open", View: "rootv"},
		{ID: 2, Op: "ping"},
		{ID: 3, Op: "resume"}, // idempotent no-op without limits
	} {
		answer := rawAnswer(t, client, encodeRequest(nil, &req))
		resp, err := decodeResponse(answer)
		if err != nil || !resp.OK {
			t.Fatalf("%s failed: %v %s", req.Op, err, resp.Error)
		}
		if resp.Token != "" || resp.Busy || resp.RetryAfterMs != 0 {
			t.Fatalf("limits-off response to %s leaked a session field: %+v", req.Op, resp)
		}
		if canon := encodeResponse(nil, &resp); !bytes.Equal(answer, canon) {
			t.Fatalf("limits-off response to %s carries bytes its fields do not account for:\n got % x\nwant % x", req.Op, answer, canon)
		}
	}
}

// TestNegativeSkipRejected: a children request with a negative skip used to
// index a lazy list at -1 on the serving goroutine and take the whole process
// down. It is an error response; this session and the server carry on.
func TestNegativeSkipRejected(t *testing.T) {
	connect := rawServer(t, nil)
	client, _ := connect()
	open := rawFrame(t, client, Request{ID: 1, Op: "open", View: "rootv"})
	if !open.OK {
		t.Fatalf("open: %+v", open)
	}
	resp := rawFrame(t, client, Request{ID: 2, Op: "children", Handle: open.Handle, Skip: -1})
	if resp.OK || !strings.Contains(resp.Error, "negative skip") {
		t.Fatalf("children skip -1 answered %+v, want an error response", resp)
	}
	if resp := rawFrame(t, client, Request{ID: 3, Op: "children", Handle: open.Handle, Max: 4}); !resp.OK || len(resp.Frames) != 2 {
		t.Fatalf("session unusable after the rejected request: %+v", resp)
	}
	fresh, _ := connect()
	if resp := rawFrame(t, fresh, Request{ID: 1, Op: "ping"}); !resp.OK {
		t.Fatalf("fresh connection after the rejected request: %+v", resp)
	}
}

// panicDoc is a source whose scan panics: a bug in a wrapper, as seen from
// the server.
type panicDoc struct{}

func (panicDoc) RootID() string { return "&boom" }
func (panicDoc) Open(source.ScanOpts) (source.ElemCursor, error) {
	panic("wrapper bug")
}

// TestServerSurvivesHandlerPanic: a panic while handling one request is that
// request's error response, reaches the operator with a stack, and costs
// that connection only.
func TestServerSurvivesHandlerPanic(t *testing.T) {
	connect := rawServer(t, func(_ *Server, med *mix.Mediator) { med.Catalog().AddDoc("&boom", panicDoc{}) })
	client, served := connect()
	q := rawFrame(t, client, Request{ID: 1, Op: "query", Query: "FOR $X IN document(&boom)/x RETURN $X"})
	if !q.OK {
		t.Fatalf("query: %+v", q)
	}
	resp := rawFrame(t, client, Request{ID: 2, Op: "down", Handle: q.Handle})
	if resp.OK || resp.ID != 2 || !strings.Contains(resp.Error, "wrapper bug") {
		t.Fatalf("panicking request answered %+v, want an error response naming the panic", resp)
	}
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "panic serving down") || !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("ServeConn returned %v, want the panic with its stack", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the connection outlived a panic in its handler")
	}
	fresh, _ := connect()
	if resp := rawFrame(t, fresh, Request{ID: 1, Op: "ping"}); !resp.OK {
		t.Fatalf("server unusable after a handler panic: %+v", resp)
	}
}

// countWrites counts the Write calls a connection sees.
type countWrites struct {
	net.Conn
	n atomic.Int64
}

func (c *countWrites) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerFrame: prefix and payload leave in one transport write in
// both directions, whatever the frame's size — a frame split in two costs a
// second system call, and over a slow link a second delivery. (Header and
// payload written separately through a 4 KiB bufio.Writer did split every
// frame past 4 KiB: +1 ms per deep batch on the benchmark's fleet workload,
// which injects 1 ms per I/O.)
func TestOneWritePerFrame(t *testing.T) {
	med := mix.New()
	if err := med.AddXMLSource("&x", "<doc>"+strings.Repeat("<a>some text</a>", 2000)+"</doc>"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", "FOR $A IN document(&x)/a RETURN $A"); err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	sw, cw := &countWrites{Conn: server}, &countWrites{Conn: client}
	go func() {
		defer server.Close()
		_ = NewServer(med).ServeConn(sw)
	}()
	c := NewClient(cw)
	defer c.Close()
	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	xml, err := root.Materialize()
	if err != nil || len(xml) < 32<<10 {
		t.Fatalf("materialize: %d bytes, %v", len(xml), err)
	}
	if _, err := c.Query("FOR $A IN document(&x)/a WHERE $A/data() = \"" + strings.Repeat("x", 8<<10) + "\" RETURN $A"); err != nil {
		t.Fatal(err)
	}
	if st := c.WireStats(); cw.n.Load() != st.RequestsSent || sw.n.Load() != st.RequestsSent {
		t.Fatalf("%d requests took %d client writes and %d server writes, want one each", st.RequestsSent, cw.n.Load(), sw.n.Load())
	}
}
