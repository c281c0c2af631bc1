package source

import (
	"sync"

	"mix/internal/xtree"
)

// Asynchronous source access: OpenAhead moves a cursor's open call and a
// bounded read-ahead onto a producer goroutine, so a federated plan touching
// N sources pays max() of their connection latencies instead of their sum.
// Documents whose open is a round trip (wire.RemoteDoc, nested federated
// documents) wrap themselves in it when a scan asks for ScanOpts.Parallel.

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

type aheadItem struct {
	n   *xtree.Node
	err error
}

// OpenAhead runs open on a new goroutine and streams the resulting cursor
// through a bounded channel of the given depth: the source-side analogue of
// the engine's exchange operator. The first Next blocks until open's outcome
// is known; an open error is delivered as the first (terminal) item. Close
// cancels the producer, joins it, and closes the inner cursor exactly once —
// the producer owns the cursor for its whole lifetime.
func OpenAhead(open func() (ElemCursor, error), depth int) ElemCursor {
	if depth < 1 {
		depth = 1
	}
	a := &aheadCursor{
		ch:   make(chan aheadItem, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go a.run(open)
	return a
}

// Prefetch wraps an already-open cursor with the same bounded read-ahead.
func Prefetch(inner ElemCursor, depth int) ElemCursor {
	return OpenAhead(func() (ElemCursor, error) { return inner, nil }, depth)
}

type aheadCursor struct {
	ch   chan aheadItem
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Async marks the cursor as safe to force-close.
func (a *aheadCursor) Async() {}

func (a *aheadCursor) run(open func() (ElemCursor, error)) {
	defer close(a.done)
	defer close(a.ch)
	cur, err := open()
	if err != nil {
		select {
		case a.ch <- aheadItem{err: err}:
		case <-a.stop:
		}
		return
	}
	defer cur.Close()
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		n, ok, err := cur.Next()
		if err != nil {
			select {
			case a.ch <- aheadItem{err: err}:
			case <-a.stop:
			}
			return
		}
		if !ok {
			return
		}
		select {
		case a.ch <- aheadItem{n: n}:
		case <-a.stop:
			return
		}
	}
}

func (a *aheadCursor) Next() (*xtree.Node, bool, error) {
	it, ok := <-a.ch
	if !ok {
		return nil, false, nil
	}
	if it.err != nil {
		return nil, false, it.err
	}
	return it.n, true, nil
}

// Close cancels the producer and joins it; idempotent and safe to call
// concurrently with Next.
func (a *aheadCursor) Close() {
	a.once.Do(func() { close(a.stop) })
	<-a.done
}
