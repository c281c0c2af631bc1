// Package testleak asserts that a test leaves no goroutines behind — the
// guard the parallel evaluation layer's tests use to prove that every
// exchange producer, build-side drain and async source scan is joined by the
// time a result is exhausted or closed.
package testleak

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Check snapshots the live goroutines and returns a function that asserts
// every goroutine started since has exited. Goroutines are told apart by
// id, so one left over from an earlier test that exits meanwhile cannot
// hide a leak. Producers are joined synchronously by Close, but runtime
// bookkeeping (and goroutines finishing their final returns) can lag a
// moment, so the assertion polls briefly before failing. Use as:
//
//	defer testleak.Check(t)()
func Check(t testing.TB) func() {
	before := goroutines()
	return func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d started by the test still running\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// goroutines returns the stack of every live goroutine, keyed by its id.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}

// NoHandles asserts that a live-handle counter (such as the wire server's
// LiveHandles) drains to zero — the proof that every session wound down and
// released its node-handle table. Like Check it polls briefly: handle
// release rides on connection teardown, which can lag the client's Close by
// a scheduler beat. Use at test end, after closing the client:
//
//	defer func() { testleak.NoHandles(t, "server node handles", srv.LiveHandles) }()
func NoHandles(t testing.TB, what string, count func() int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var n int
	for {
		n = count()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("handle leak: %d %s still live at test end", n, what)
}
