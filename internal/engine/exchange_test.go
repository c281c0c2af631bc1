package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/xmas"
)

// testTuples builds n single-variable tuples over leaf elements v0..v(n-1).
func testTuples(n int) ([]xmas.Var, []Tuple) {
	schema := []xmas.Var{"$X"}
	out := make([]Tuple, n)
	for i := range out {
		out[i] = NewTuple(schema, []Value{NodeVal{E: NewLeaf(fmt.Sprintf("&x%d", i), fmt.Sprintf("v%d", i))}})
	}
	return schema, out
}

// blockingCursor yields tuples with a per-pull delay, counts delivered
// tuples, and records whether it was closed.
type blockingCursor struct {
	tuples []Tuple
	delay  time.Duration

	mu        sync.Mutex
	pos       int
	delivered int
	closed    bool
}

func (b *blockingCursor) Next() (Tuple, bool, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pos >= len(b.tuples) {
		return Tuple{}, false, nil
	}
	t := b.tuples[b.pos]
	b.pos++
	b.delivered++
	return t, true, nil
}

func (b *blockingCursor) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
}

func (b *blockingCursor) snapshot() (delivered int, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivered, b.closed
}

func parExec(parallelism, buffer int) *execState {
	return newExecState(Options{Parallelism: parallelism, ExchangeBuffer: buffer})
}

func TestExchangeDeliversInOrder(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 4)
	_, tuples := testTuples(20)
	cur := startExchange(ex, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := cur.(*source.Ahead[Tuple]); !ok {
		t.Fatalf("expected an exchange, got %T", cur)
	}
	got, err := drain(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("got %d tuples, want %d", len(got), len(tuples))
	}
	for i, tt := range got {
		if tt.String() != tuples[i].String() {
			t.Fatalf("tuple %d: got %s, want %s", i, tt, tuples[i])
		}
	}
	closeCursor(cur) // after EOF: must be a safe no-op
}

func TestExchangePropagatesError(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 4)
	boom := errors.New("boom")
	_, tuples := testTuples(3)
	i := 0
	cur := startExchange(ex, func() Cursor {
		return cursorFunc(func() (Tuple, bool, error) {
			if i >= len(tuples) {
				return Tuple{}, false, boom
			}
			t := tuples[i]
			i++
			return t, true, nil
		})
	})
	got, err := drain(cur)
	if !errors.Is(err, boom) {
		t.Fatalf("got err %v, want boom", err)
	}
	if len(got) != 0 {
		t.Fatalf("drain returns nil tuples on error, got %d", len(got))
	}
	closeCursor(cur)
}

func TestExchangeBackpressure(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 2)
	_, tuples := testTuples(50)
	src := &blockingCursor{tuples: tuples}
	cur := startExchange(ex, func() Cursor { return src })
	// Pull one tuple, then give the producer time to run ahead: it may fill
	// the buffer (2) plus one in-flight item plus the one consumed, never all
	// fifty.
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	time.Sleep(50 * time.Millisecond)
	delivered, _ := src.snapshot()
	if max := 1 + 2 + 1; delivered > max {
		t.Fatalf("producer ran %d tuples ahead, backpressure bound is %d", delivered, max)
	}
	if _, err := drain(cur); err != nil {
		t.Fatal(err)
	}
}

func TestExchangeCloseCancelsAndJoins(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(2, 2)
	_, tuples := testTuples(1000)
	src := &blockingCursor{tuples: tuples, delay: time.Millisecond}
	cur := startExchange(ex, func() Cursor { return src })
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	x := cur.(*source.Ahead[Tuple])
	x.Close()
	x.Close() // idempotent
	if _, closed := src.snapshot(); !closed {
		t.Fatal("inner cursor not closed after exchange Close")
	}
	// The producer slot must be free again after Close.
	if !ex.tryAcquire() {
		t.Fatal("producer slot not released after Close")
	}
	ex.release()
}

// TestExchangeDrainReturnsSlot: a drained exchange has returned its
// producer slot by the time Next reports end of stream, before any Close.
func TestExchangeDrainReturnsSlot(t *testing.T) {
	defer testleak.Check(t)()
	_, tuples := testTuples(5)
	for round := 0; round < 200; round++ {
		ex := parExec(2, 2)
		cur := startExchange(ex, func() Cursor { return &sliceCursor{tuples: tuples} })
		if _, err := drain(cur); err != nil {
			t.Fatal(err)
		}
		if !ex.tryAcquire() {
			t.Fatalf("round %d: producer slot still held after end of stream", round)
		}
		ex.release()
		closeCursor(cur)
	}
}

func TestExchangeNoSlotFallsBackSynchronous(t *testing.T) {
	defer testleak.Check(t)()
	seqEx := newExecState(Options{}) // Parallelism unset: sequential
	_, tuples := testTuples(3)
	cur := startExchange(seqEx, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := cur.(*sliceCursor); !ok {
		t.Fatalf("sequential execState must return the inner cursor, got %T", cur)
	}

	// Budget of one producer slot: the second exchange runs synchronous.
	ex := parExec(2, 2)
	first := startExchange(ex, func() Cursor { return &blockingCursor{tuples: tuples, delay: 50 * time.Millisecond} })
	if _, ok := first.(*source.Ahead[Tuple]); !ok {
		t.Fatalf("first exchange should get the slot, got %T", first)
	}
	second := startExchange(ex, func() Cursor { return &sliceCursor{tuples: tuples} })
	if _, ok := second.(*sliceCursor); !ok {
		t.Fatalf("budget exhausted: second must be synchronous, got %T", second)
	}
	closeCursor(first)
}

func TestExecStateTrackAfterCloseAll(t *testing.T) {
	defer testleak.Check(t)()
	ex := parExec(4, 2)
	ex.closeAll()
	src := &blockingCursor{}
	if ex.track(src) {
		t.Fatal("track after closeAll must report false")
	}
	if _, closed := src.snapshot(); !closed {
		t.Fatal("track after closeAll must close the cursor")
	}
}

// TestExchangeConcurrentNextCloseStress hammers Next and Close from separate
// goroutines; run under -race it is the exchange layer's data-race probe.
func TestExchangeConcurrentNextCloseStress(t *testing.T) {
	defer testleak.Check(t)()
	for round := 0; round < 50; round++ {
		ex := parExec(4, 4)
		_, tuples := testTuples(200)
		cur := startExchange(ex, func() Cursor { return &blockingCursor{tuples: tuples} })
		x, ok := cur.(*source.Ahead[Tuple])
		if !ok {
			t.Fatalf("round %d: expected an exchange, got %T", round, cur)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				if _, ok, err := x.Next(); !ok || err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if round%2 == 0 {
				time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
			}
			x.Close()
		}()
		wg.Wait()
		ex.closeAll()
	}
}
