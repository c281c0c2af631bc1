package engine

import "sync"

// This file is the exchange-style asynchronous operator layer: a bounded,
// channel-backed prefetching cursor (exchange) that can wrap any compiled
// operator, plus the per-execution state that budgets producer goroutines
// and force-closes whatever is still running when a result is abandoned.
//
// Demand-driven semantics are preserved at buffer granularity: an exchange
// begins producing when its plan fragment is instantiated — which only
// happens once navigation first pulls on the enclosing program — and runs at
// most ExchangeBuffer tuples ahead of its consumer before backpressure
// blocks it. Close cancels the producer and joins it; cancellation is
// observed between pulls, so a producer blocked inside a slow source Next
// is joined as soon as that pull returns.

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

type exchItem struct {
	t   Tuple
	err error
}

// exchange runs a wrapped cursor on its own goroutine, delivering tuples
// through a bounded channel: the Volcano-style exchange operator. Next and
// Close are safe to call concurrently; Close cancels the producer and joins
// it, and is idempotent.
type exchange struct {
	ch   chan exchItem
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startExchange wraps the cursor produced by open in an exchange when a
// producer slot is free; otherwise it returns the synchronous cursor
// unchanged, which keeps budget-exhausted (and all Parallelism <= 1)
// executions on the exact sequential code path. open runs on the producer
// goroutine, so cursor construction — including source opens — moves off
// the consumer.
func startExchange(ex *execState, open func() Cursor) Cursor {
	if !ex.tryAcquire() {
		return open()
	}
	x := &exchange{
		ch:   make(chan exchItem, ex.buf),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go x.run(ex, open)
	ex.track(x)
	return x
}

func (x *exchange) run(ex *execState, open func() Cursor) {
	defer close(x.done)
	defer ex.release()
	defer close(x.ch)
	cur := open()
	defer closeCursor(cur)
	for {
		select {
		case <-x.stop:
			return
		default:
		}
		t, ok, err := cur.Next()
		if err != nil {
			select {
			case x.ch <- exchItem{err: err}:
			case <-x.stop:
			}
			return
		}
		if !ok {
			return
		}
		select {
		case x.ch <- exchItem{t: t}:
		case <-x.stop:
			return
		}
	}
}

func (x *exchange) Next() (Tuple, bool, error) {
	it, ok := <-x.ch
	if !ok {
		return Tuple{}, false, nil
	}
	if it.err != nil {
		return Tuple{}, false, it.err
	}
	return it.t, true, nil
}

// Close cancels the producer and joins it. After Close, Next drains nothing
// further and reports end of stream.
func (x *exchange) Close() {
	x.once.Do(func() { close(x.stop) })
	<-x.done
}
