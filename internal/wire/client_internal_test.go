package wire

import (
	"errors"
	"testing"
)

// TestClosedClientHoldsNoBuffers: Close drops the read buffer, the request
// buffer and the pending releases, which a closed client referenced from a
// catalog or a shard's member list would otherwise keep for its lifetime.
func TestClosedClientHoldsNoBuffers(t *testing.T) {
	conn, _ := rawServer(t, nil)()
	c := NewClient(conn)
	root, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	_ = n.Release() // queued for the next request
	if c.in == nil || c.binBuf == nil || len(c.pendingRelease) != 1 {
		t.Fatalf("an open client after a walk: reader %v, request buffer %d bytes, %d pending releases",
			c.in != nil, len(c.binBuf), len(c.pendingRelease))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.in != nil || c.binBuf != nil || c.pendingRelease != nil {
		t.Fatalf("a closed client holds: reader %v, request buffer %d bytes, %d pending releases",
			c.in != nil, len(c.binBuf), len(c.pendingRelease))
	}
	if err := c.Ping(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("ping after Close: %v, want ErrClientClosed", err)
	}
	if err := root.Release(); err != nil {
		t.Fatalf("release after Close: %v", err)
	}
}
