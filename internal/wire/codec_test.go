package wire_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"sync"
	"testing"

	"mix/internal/wire"
)

// tap records the bytes one client connection carries in each direction.
type tap struct {
	io.ReadWriteCloser
	mu         sync.Mutex
	sent, recv []byte
}

func (c *tap) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.mu.Lock()
	c.sent = append(c.sent, p[:n]...)
	c.mu.Unlock()
	return n, err
}

func (c *tap) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.mu.Lock()
	c.recv = append(c.recv, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// firstPayload asserts that stream starts with one complete length-prefixed
// frame of the given kind and returns its payload.
func firstPayload(t *testing.T, what string, stream []byte, kind byte) []byte {
	t.Helper()
	if len(stream) < 5 {
		t.Fatalf("%s: %d bytes on the wire, no frame", what, len(stream))
	}
	n := int(binary.BigEndian.Uint32(stream))
	if n < 1 || n > len(stream)-4 || stream[4] != kind {
		t.Fatalf("%s does not start with a length-prefixed %q frame: % x", what, kind, stream[:5])
	}
	return stream[4 : 4+n]
}

// TestEveryConnectionStartsBinary pins the one wire encoding on the raw
// bytes: the first frame in each direction is a length-prefixed tagged frame
// on a fresh connection and again after a redial — where, against a
// session-limited server, it is the resume exchange. There is no handshake
// to fall back from. The client's byte counters equal what the taps saw.
func TestEveryConnectionStartsBinary(t *testing.T) {
	e := limitedEndpoint(t, func(s *wire.Server) { s.MaxSessions = 4 })
	var taps []*tap
	cfg := fastCfg()
	cfg.Redial = func() (io.ReadWriteCloser, error) {
		conn, err := e.dial()
		if err != nil {
			return nil, err
		}
		taps = append(taps, &tap{ReadWriteCloser: conn})
		return taps[len(taps)-1], nil
	}
	first, err := cfg.Redial()
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClientConfig(first, cfg)
	defer c.Close()

	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	e.killConn() // sever the transport under the client
	if _, err := root.Down(); err != nil {
		t.Fatal(err) // redials, resumes, replays the path
	}
	st := c.WireStats()
	if st.Redials != 1 || st.Resumes != 1 || len(taps) != 2 {
		t.Fatalf("expected one redial with a session resume over two connections: %+v, %d connections", st, len(taps))
	}

	var sent, recv int64
	for i, tp := range taps {
		tp.mu.Lock()
		req := firstPayload(t, "client's first bytes", tp.sent, 'Q')
		firstPayload(t, "server's first bytes", tp.recv, 'R')
		sent += int64(len(tp.sent))
		recv += int64(len(tp.recv))
		tp.mu.Unlock()
		want := []string{"open", "resume"}[i]
		if !bytes.Contains(req, []byte(want)) {
			t.Fatalf("connection %d: first request % x is not the %s op", i, req, want)
		}
	}
	if st.BytesSent != sent || st.BytesRecv != recv {
		t.Fatalf("byte counters %d/%d, the wire carried %d/%d", st.BytesSent, st.BytesRecv, sent, recv)
	}
	if st.OpBytesSent["open"] == 0 || st.OpBytesRecv["resume"] == 0 || st.OpBytesRecv["children"] == 0 {
		t.Fatalf("per-op byte counters empty: sent=%v recv=%v", st.OpBytesSent, st.OpBytesRecv)
	}
}
