package wire

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// TestBackoffJitter: a retry sleeps between half and all of its backoff
// step, and one seed draws one sequence.
func TestBackoffJitter(t *testing.T) {
	draws := func(seed int64) []time.Duration {
		c := NewClientConfig(nil, ClientConfig{Seed: seed})
		var out []time.Duration
		for d := time.Duration(1); d < time.Second; d = d*3 + 1 {
			j := c.jitter(d)
			if j < d/2 || j > d {
				t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d)
			}
			out = append(out, j)
		}
		return out
	}
	if a, b := draws(7), draws(7); !slices.Equal(a, b) {
		t.Fatalf("seed 7 drew %v, then %v", a, b)
	}
	if a, b := draws(7), draws(8); slices.Equal(a, b) {
		t.Fatalf("seeds 7 and 8 drew the same %v", a)
	}
}

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
