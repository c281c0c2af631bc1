package source_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/xtree"
)

// countCursor yields left leaves and counts its Close calls.
type countCursor struct {
	left   int
	closes atomic.Int32
}

func (c *countCursor) Next() (*xtree.Node, bool, error) {
	if c.left == 0 {
		return nil, false, nil
	}
	c.left--
	return xtree.Text("v"), true, nil
}

func (c *countCursor) Close() { c.closes.Add(1) }

// TestOpenAheadCloseLeavesNothing closes an OpenAhead cursor in each state
// its producer goroutine can be in: still inside open, streaming with a
// full channel, done after exhaustion, and done after an open error. Each
// Close joins the producer (no goroutine is left behind) and the inner
// cursor, once opened, is closed exactly once.
func TestOpenAheadCloseLeavesNothing(t *testing.T) {
	t.Run("before open returns", func(t *testing.T) {
		defer testleak.Check(t)()
		inner := &countCursor{left: 100}
		release := make(chan struct{})
		cur := source.OpenAhead(func() (source.ElemCursor, error) {
			<-release
			return inner, nil
		}, 2)
		closed := make(chan struct{})
		go func() {
			cur.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Close returned while open was still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		if n := inner.closes.Load(); n != 1 {
			t.Fatalf("inner cursor closed %d times, want 1", n)
		}
	})

	t.Run("mid-stream", func(t *testing.T) {
		defer testleak.Check(t)()
		inner := &countCursor{left: 100}
		cur := source.OpenAhead(func() (source.ElemCursor, error) { return inner, nil }, 2)
		for i := 0; i < 3; i++ {
			if _, ok, err := cur.Next(); !ok || err != nil {
				t.Fatalf("Next %d = %v, %v", i, ok, err)
			}
		}
		cur.Close()
		if n := inner.closes.Load(); n != 1 {
			t.Fatalf("inner cursor closed %d times, want 1", n)
		}
	})

	t.Run("after exhaustion", func(t *testing.T) {
		defer testleak.Check(t)()
		inner := &countCursor{left: 5}
		cur := source.OpenAhead(func() (source.ElemCursor, error) { return inner, nil }, 2)
		got := 0
		for {
			_, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got++
		}
		cur.Close()
		cur.Close() // idempotent
		if got != 5 {
			t.Fatalf("read %d items, want 5", got)
		}
		if n := inner.closes.Load(); n != 1 {
			t.Fatalf("inner cursor closed %d times, want 1", n)
		}
	})

	t.Run("after open error", func(t *testing.T) {
		defer testleak.Check(t)()
		boom := errors.New("source down")
		cur := source.OpenAhead(func() (source.ElemCursor, error) { return nil, boom }, 2)
		if _, ok, err := cur.Next(); ok || !errors.Is(err, boom) {
			t.Fatalf("Next = %v, %v; want the open error", ok, err)
		}
		if _, ok, err := cur.Next(); ok || err != nil {
			t.Fatalf("Next after the error = %v, %v; want the end", ok, err)
		}
		cur.Close()
	})
}
