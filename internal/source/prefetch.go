package source

import (
	"sync"

	"mix/internal/xtree"
)

// Bounded read-ahead: a producer goroutine changes when a pull happens, never
// what is pulled. Ahead is the one implementation. The engine's exchange
// operator runs a plan fragment's tuple cursor through it; OpenAhead moves a
// source cursor's open call and read-ahead onto it, so a federated plan
// touching N sources pays max() of their connection latencies instead of
// their sum; a shard coordinator gives each member one when it fans out.

// AsyncCursor marks cursors that own producer goroutines (OpenAhead, a shard
// fan-out): Close may be called from another goroutine while Next is blocked,
// and joins the producers. Under Parallelism > 1 the engine registers exactly
// these for force-close when a result is abandoned; any other cursor is only
// ever closed by the goroutine that pulls it.
type AsyncCursor interface {
	ElemCursor
	// Async is a marker; it performs no work.
	Async()
}

// Puller is a cursor of any item type: an ElemCursor, or an engine tuple
// cursor. A non-nil error is terminal.
type Puller[T any] interface {
	Next() (T, bool, error)
}

type aheadItem[T any] struct {
	v   T
	err error
}

// Ahead streams a cursor through a bounded channel filled by a producer
// goroutine. The producer runs open, then pulls at most depth items ahead of
// the consumer before backpressure blocks it; an open or pull error is
// delivered in band as the last item. Cancellation is observed between
// pulls, so a producer blocked inside a slow Next is joined as soon as that
// pull returns. The producer owns the inner cursor and closes it exactly
// once, if it has a Close method, before the consumer can see end of stream.
// Next and Close may be called from different goroutines.
type Ahead[T any] struct {
	ch   chan aheadItem[T]
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewAhead starts the producer for open with a read-ahead of depth items
// (at least 1).
func NewAhead[T any](open func() (Puller[T], error), depth int) *Ahead[T] {
	if depth < 1 {
		depth = 1
	}
	a := &Ahead[T]{
		ch:   make(chan aheadItem[T], depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run(open)
	return a
}

// OpenAhead runs open and a bounded read-ahead of its cursor on a producer
// goroutine. The first Next blocks until open's outcome is known; an open
// error is delivered as the first (terminal) item.
func OpenAhead(open func() (ElemCursor, error), depth int) ElemCursor {
	return NewAhead(func() (Puller[*xtree.Node], error) { return open() }, depth)
}

// Async marks the cursor as safe to force-close.
func (a *Ahead[T]) Async() {}

func (a *Ahead[T]) run(open func() (Puller[T], error)) {
	defer close(a.done)
	defer close(a.ch)
	cur, err := open()
	if err != nil {
		a.send(aheadItem[T]{err: err})
		return
	}
	if c, ok := cur.(interface{ Close() }); ok {
		defer c.Close()
	}
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		v, ok, err := cur.Next()
		if err != nil {
			a.send(aheadItem[T]{err: err})
			return
		}
		if !ok || !a.send(aheadItem[T]{v: v}) {
			return
		}
	}
}

// send delivers it unless the cursor is cancelled first.
func (a *Ahead[T]) send(it aheadItem[T]) bool {
	select {
	case a.ch <- it:
		return true
	case <-a.stop:
		return false
	}
}

func (a *Ahead[T]) Next() (T, bool, error) {
	it, ok := <-a.ch
	if !ok || it.err != nil {
		var zero T
		return zero, false, it.err
	}
	return it.v, true, nil
}

// Cancel asks the producer to stop without waiting for it. A caller closing
// several cursors cancels them all before joining any, so their last pulls
// overlap.
func (a *Ahead[T]) Cancel() { a.once.Do(func() { close(a.stop) }) }

// Close cancels the producer and joins it; idempotent.
func (a *Ahead[T]) Close() {
	a.Cancel()
	<-a.done
}
