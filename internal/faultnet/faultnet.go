// Package faultnet injects deterministic transport faults into a
// net.Conn / io.ReadWriteCloser: latency spikes, mid-stream connection
// loss, short (split) writes, and garbled bytes. The wire-layer tests use
// it to prove that every failure mode yields a clean, typed error or a
// correctly recovered result — never a hang and never a wrong answer.
//
// All randomness comes from a seeded source, so a failing schedule is
// reproducible from its seed alone.
package faultnet

import (
	"io"
	"math/rand"
	"sync"
	"time"
)

// Config selects which faults to inject. The zero value injects nothing
// (Wrap is then a transparent proxy).
type Config struct {
	// Seed seeds the deterministic fault schedule; 0 means 1.
	Seed int64
	// LatencyProb is the per-operation probability (0..1) of sleeping
	// Latency before the I/O proceeds.
	LatencyProb float64
	// Latency is the injected delay.
	Latency time.Duration
	// CloseAfterBytes closes the connection for good once that many bytes
	// (reads + writes combined) have crossed it — a mid-stream connection
	// loss. 0 disables.
	CloseAfterBytes int64
	// ShortWriteProb is the per-write probability of splitting the write
	// into two separate inner writes (stressing framing reassembly; no
	// error is surfaced).
	ShortWriteProb float64
	// GarbleProb is the per-read probability of corrupting one byte of the
	// data delivered to the caller (a garbled frame).
	GarbleProb float64
}

// Stats counts injected faults (diagnostics and determinism tests).
type Stats struct {
	Latencies   int
	ShortWrites int
	Garbled     int
	Closes      int
}

// Conn wraps a transport with fault injection. It implements
// io.ReadWriteCloser and passes SetDeadline through when the inner
// transport supports it (net.Conn, net.Pipe), so client op deadlines keep
// working under injection.
type Conn struct {
	inner io.ReadWriteCloser
	cfg   Config

	mu     sync.Mutex
	rng    *rand.Rand
	bytes  int64
	closed bool
	stats  Stats
}

// Wrap decorates a transport with the configured fault schedule.
func Wrap(inner io.ReadWriteCloser, cfg Config) *Conn {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Conn{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats returns the injected-fault counters so far.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// maybeLatency decides (deterministically) whether to sleep, and sleeps
// outside the lock.
func (c *Conn) maybeLatency() {
	if c.cfg.LatencyProb <= 0 || c.cfg.Latency <= 0 {
		return
	}
	c.mu.Lock()
	hit := c.rng.Float64() < c.cfg.LatencyProb
	if hit {
		c.stats.Latencies++
	}
	c.mu.Unlock()
	if hit {
		time.Sleep(c.cfg.Latency)
	}
}

// account adds transferred bytes and closes the connection mid-stream when
// the configured budget is exhausted. Reports whether the connection is
// (now) dead.
func (c *Conn) account(n int) bool {
	if c.cfg.CloseAfterBytes <= 0 {
		return false
	}
	c.mu.Lock()
	c.bytes += int64(n)
	kill := c.bytes >= c.cfg.CloseAfterBytes && !c.closed
	if kill {
		c.closed = true
		c.stats.Closes++
	}
	dead := c.closed
	c.mu.Unlock()
	if kill {
		_ = c.inner.Close()
	}
	return dead && kill
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.isClosed() {
		return 0, io.ErrClosedPipe
	}
	c.maybeLatency()
	n, err := c.inner.Read(p)
	if n > 0 && c.cfg.GarbleProb > 0 {
		c.mu.Lock()
		if c.rng.Float64() < c.cfg.GarbleProb {
			// Four flipped bits in one byte: a length prefix, tag or varint
			// so hit fails framing, decoding or the id check. (Inside a
			// string value it would pass; the protocol has no checksum.)
			p[c.rng.Intn(n)] ^= 0xAA
			c.stats.Garbled++
		}
		c.mu.Unlock()
	}
	c.account(n)
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.isClosed() {
		return 0, io.ErrClosedPipe
	}
	c.maybeLatency()
	split := 0
	if c.cfg.ShortWriteProb > 0 && len(p) > 1 {
		c.mu.Lock()
		if c.rng.Float64() < c.cfg.ShortWriteProb {
			split = 1 + c.rng.Intn(len(p)-1)
			c.stats.ShortWrites++
		}
		c.mu.Unlock()
	}
	if split > 0 {
		n, err := c.inner.Write(p[:split])
		c.account(n)
		if err != nil {
			return n, err
		}
		m, err := c.inner.Write(p[split:])
		c.account(m)
		return n + m, err
	}
	n, err := c.inner.Write(p)
	c.account(n)
	return n, err
}

// Close closes the inner transport.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.inner.Close()
}

type deadliner interface{ SetDeadline(time.Time) error }

// SetDeadline passes through to the inner transport when supported, so op
// deadlines hold under fault injection.
func (c *Conn) SetDeadline(t time.Time) error {
	if d, ok := c.inner.(deadliner); ok {
		return d.SetDeadline(t)
	}
	return nil
}
