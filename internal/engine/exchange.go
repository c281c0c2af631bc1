package engine

import (
	"sync"

	"mix/internal/source"
)

// This file is the exchange-style asynchronous operator layer: a bounded
// read-ahead (source.Ahead) that can wrap any compiled operator, plus the
// per-execution state that budgets producer goroutines and force-closes
// whatever is still running when a result is abandoned.
//
// Demand-driven semantics are preserved at buffer granularity: an exchange
// begins producing when its plan fragment is instantiated — which only
// happens once navigation first pulls on the enclosing program — and runs at
// most ExchangeBuffer tuples ahead of its consumer before backpressure
// blocks it.

// DefaultExchangeBuffer is the per-exchange tuple buffer used when
// Options.ExchangeBuffer is zero.
const DefaultExchangeBuffer = 32

// execState is the shared runtime state of one execution's parallel
// machinery: the producer-goroutine budget, the exchange buffer bound, and
// the registry of async cursors Result.Close force-closes. A sequential
// execution (Parallelism <= 1) carries one too, with a nil semaphore, so
// every tryAcquire fails and all operators run on the exact sequential code
// path. Its mutex also guards the execution's shared partial-result notes,
// which producer goroutines may append to concurrently.
type execState struct {
	sem chan struct{} // producer slots; nil when sequential
	buf int           // exchange/read-ahead buffer bound

	mu      sync.Mutex
	closers []interface{ Close() }
	closed  bool
}

func newExecState(opts Options) *execState {
	ex := &execState{buf: opts.ExchangeBuffer}
	if ex.buf <= 0 {
		ex.buf = DefaultExchangeBuffer
	}
	if opts.Parallelism > 1 {
		// Parallelism counts the consumer, so n allows n-1 producers.
		ex.sem = make(chan struct{}, opts.Parallelism-1)
	}
	return ex
}

// parallel reports whether this execution may spawn producer goroutines at
// all (used to gate paths that must stay byte-identical to the sequential
// protocol when Parallelism <= 1).
func (ex *execState) parallel() bool { return ex != nil && ex.sem != nil }

// tryAcquire claims a producer slot without blocking. Callers fall back to
// synchronous evaluation when the budget is spent — blocking here could
// deadlock (a producer waiting on a slot its own consumer holds).
func (ex *execState) tryAcquire() bool {
	if ex == nil || ex.sem == nil {
		return false
	}
	select {
	case ex.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (ex *execState) release() { <-ex.sem }

// track registers an async cursor for force-close at Result.Close. It
// reports false — after closing c itself — when the execution has already
// been shut down, so late producers never outlive a closed result.
func (ex *execState) track(c interface{ Close() }) bool {
	if ex == nil {
		return true
	}
	ex.mu.Lock()
	if ex.closed {
		ex.mu.Unlock()
		c.Close()
		return false
	}
	ex.closers = append(ex.closers, c)
	ex.mu.Unlock()
	return true
}

// closeAll cancels and joins every tracked async cursor, newest first
// (consumers before the producers feeding them). Idempotent.
func (ex *execState) closeAll() {
	if ex == nil {
		return
	}
	ex.mu.Lock()
	cs := ex.closers
	ex.closers = nil
	ex.closed = true
	ex.mu.Unlock()
	for i := len(cs) - 1; i >= 0; i-- {
		cs[i].Close()
	}
}

// closeCursor force-closes cursors that hold resources (exchanges, async
// source scans, counting wrappers around either); plain synchronous cursors
// have nothing to release, and any async cursor a wrapper hides is still
// reached through the execState registry.
func closeCursor(c Cursor) {
	if cl, ok := c.(interface{ Close() }); ok {
		cl.Close()
	}
}

// startExchange wraps the cursor produced by open in an exchange — the
// Volcano-style operator, here a source.Ahead over tuples — when a producer
// slot is free; otherwise it returns the synchronous cursor unchanged, which
// keeps budget-exhausted (and all Parallelism <= 1) executions on the exact
// sequential code path. open runs on the producer goroutine, so cursor
// construction — including source opens — moves off the consumer.
func startExchange(ex *execState, open func() Cursor) Cursor {
	if !ex.tryAcquire() {
		return open()
	}
	x := source.NewAhead(func() (source.Puller[Tuple], error) {
		return slotCursor{open(), ex}, nil
	}, ex.buf)
	ex.track(x)
	return x
}

// slotCursor returns the execution's producer slot when the producer closes
// it, which is before the exchange reports end of stream.
type slotCursor struct {
	Cursor
	ex *execState
}

func (c slotCursor) Close() {
	closeCursor(c.Cursor)
	c.ex.release()
}
