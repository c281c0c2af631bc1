package wire_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"mix"
	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/wire"
	"mix/internal/xtree"
)

// flatXML builds a document with n flat <item> children.
func flatXML(n int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<item>v%d</item>", i)
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// flatMediator serves a view with n remote children — the walk workload the
// batched navigation ops exist for.
func flatMediator(tb testing.TB, n int) *mix.Mediator {
	tb.Helper()
	med := mix.New()
	if err := med.AddXMLSource("&flat", flatXML(n)); err != nil {
		tb.Fatal(err)
	}
	if _, err := med.DefineView("flatv", `
FOR $I IN document(&flat)/item
RETURN <It> $I </It>`); err != nil {
		tb.Fatal(err)
	}
	return med
}

// dialFlat connects a configured client to a fresh flat-view server.
func dialFlat(tb testing.TB, med *mix.Mediator, srvTweak func(*wire.Server), cfg wire.ClientConfig) *wire.Client {
	tb.Helper()
	server, client := net.Pipe()
	srv := wire.NewServer(med)
	if srvTweak != nil {
		srvTweak(srv)
	}
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClientConfig(client, cfg)
	tb.Cleanup(func() {
		_ = c.Close()
		testleak.NoHandles(tb, "server node handles", srv.LiveHandles)
	})
	return c
}

// walkChildren walks every child of the view root with Down/Right,
// releasing consumed nodes, and returns the visited (label, id) sequence.
func walkChildren(tb testing.TB, c *wire.Client, view string) []string {
	tb.Helper()
	root, err := c.Open(view)
	if err != nil {
		tb.Fatal(err)
	}
	var seq []string
	n, err := root.Down()
	if err != nil {
		tb.Fatal(err)
	}
	for n != nil {
		seq = append(seq, n.Label()+"|"+n.ID())
		next, err := n.Right()
		if err != nil {
			tb.Fatal(err)
		}
		_ = n.Release()
		n = next
	}
	_ = root.Release()
	return seq
}

// TestBatchedNavParity: a batched walk visits exactly the node sequence a
// single-step walk visits — batching changes delivery, never semantics.
func TestBatchedNavParity(t *testing.T) {
	med := flatMediator(t, 37)
	single := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: -1})
	batched := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: 8})
	prefetched := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: 8, Prefetch: true})

	want := walkChildren(t, single, "flatv")
	if len(want) != 37 {
		t.Fatalf("single-step walk saw %d children, want 37", len(want))
	}
	for name, c := range map[string]*wire.Client{"batched": batched, "prefetched": prefetched} {
		got := walkChildren(t, c, "flatv")
		if len(got) != len(want) {
			t.Fatalf("%s walk saw %d children, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s walk diverged at %d: %q vs %q", name, i, got[i], want[i])
			}
		}
	}
}

// TestBatchSizeOneExact: with batching disabled the client never issues a
// children/scan op — today's one-round-trip-per-step behaviour, exactly.
func TestBatchSizeOneExact(t *testing.T) {
	med := flatMediator(t, 5)
	c := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: -1})
	seq := walkChildren(t, c, "flatv")
	if len(seq) != 5 {
		t.Fatalf("walk saw %d children, want 5", len(seq))
	}
	st := c.WireStats()
	if st.BatchesFetched != 0 || st.FramesBatched != 0 {
		t.Fatalf("batch-disabled client fetched batches: %+v", st)
	}
	// open + down + 5·right (last hits ⊥) + 6·close = 13 round trips.
	if st.RequestsSent != 13 {
		t.Fatalf("single-step walk of 5 children took %d round trips, want 13", st.RequestsSent)
	}
}

// TestWalkRoundTripReduction is the tentpole's acceptance gate: a
// 1000-child walk at batch ≥16 takes at least 5× fewer round trips than at
// batch 1, asserted through the client's own counters.
func TestWalkRoundTripReduction(t *testing.T) {
	med := flatMediator(t, 1000)

	single := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: -1})
	if n := len(walkChildren(t, single, "flatv")); n != 1000 {
		t.Fatalf("single walk saw %d children", n)
	}
	rtSingle := single.WireStats().RequestsSent

	batched := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: 16})
	if n := len(walkChildren(t, batched, "flatv")); n != 1000 {
		t.Fatalf("batched walk saw %d children", n)
	}
	stB := batched.WireStats()

	if stB.RequestsSent*5 > rtSingle {
		t.Fatalf("round trips: batch16 %d vs single %d — reduction < 5×", stB.RequestsSent, rtSingle)
	}
	if stB.BatchesFetched == 0 || stB.FramesBatched < 1000 {
		t.Fatalf("batch counters inconsistent: %+v", stB)
	}
	// Adaptive growth: 1000 frames at sizes 1,2,4,8,16,16,... is ~66
	// batches; far fewer than one per child, comfortably more than
	// 1000/16.
	if stB.BatchesFetched > 80 {
		t.Fatalf("adaptive window did not grow: %d batches for 1000 frames", stB.BatchesFetched)
	}
	t.Logf("round trips for 1000-child walk: single=%d batch16=%d (%.1f×), batches=%d",
		rtSingle, stB.RequestsSent, float64(rtSingle)/float64(stB.RequestsSent), stB.BatchesFetched)
}

// TestBatchReleasePiggyback: consumed frames ride out on later requests'
// Release field, so a walk under a tiny server handle table succeeds —
// partial batches (More=true) plus piggybacked releases keep the table
// bounded without dedicated close round trips.
func TestBatchReleasePiggyback(t *testing.T) {
	med := flatMediator(t, 30)
	c := dialFlat(t, med,
		func(s *wire.Server) { s.MaxHandles = 4 },
		wire.ClientConfig{BatchSize: 16})
	seq := walkChildren(t, c, "flatv")
	if len(seq) != 30 {
		t.Fatalf("walk under MaxHandles=4 saw %d children, want 30", len(seq))
	}
	st := c.WireStats()
	if st.BatchesFetched == 0 {
		t.Fatal("walk never used batches")
	}
	// The walk must still beat single-step round trips (open + 30 steps +
	// 30 closes) even with the table capping every batch.
	if st.RequestsSent >= 61 {
		t.Fatalf("batched walk under handle pressure took %d round trips", st.RequestsSent)
	}
}

// TestDeepBatchMaterialize: frames of a Deep scan carry their subtree, so
// Materialize on them costs zero additional round trips.
func TestDeepBatchMaterialize(t *testing.T) {
	med := flatMediator(t, 10)
	c := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: 8})
	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.DownScan(wire.ScanConfig{BatchSize: 8, Deep: true})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for n != nil {
		before := c.WireStats().RequestsSent
		xml, err := n.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if c.WireStats().RequestsSent != before {
			t.Fatal("deep-batch materialize paid a round trip")
		}
		if !strings.Contains(xml, "<item>") {
			t.Fatalf("deep frame XML:\n%s", xml)
		}
		count++
		if n, err = n.Right(); err != nil {
			t.Fatal(err)
		}
	}
	if count != 10 {
		t.Fatalf("deep scan saw %d children, want 10", count)
	}
}

// TestDeepBatchTagDenseWithinMaxFrame: the byte budget a Deep batch is cut
// to is a true upper bound of its encoding. frameSize charges 96 bytes plus
// a frame's raw string lengths against 7/8 of MaxFrame, and a frame encodes
// to those strings plus a flag byte and varints. (The JSON line protocol
// wrote every '<', '>' and '&' of the shipped XML as six bytes, so these
// tag-dense subtrees came to about three times their budget and the walk
// died with ErrFrameTooLarge after 7 children.) An item holds 40 <a>
// elements, so its frame is about 400 bytes: about 8 frames a batch.
func TestDeepBatchTagDenseWithinMaxFrame(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 100; i++ {
		sb.WriteString("<item>" + strings.Repeat("<a>1</a>", 40) + "</item>")
	}
	sb.WriteString("</doc>")
	med := mix.New()
	if err := med.AddXMLSource("&dense", sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("densev", "FOR $I IN document(&dense)/item RETURN $I"); err != nil {
		t.Fatal(err)
	}
	c := dialFlat(t, med, func(s *wire.Server) { s.MaxFrame = 4096 }, wire.ClientConfig{MaxFrame: 4096})
	root, err := c.Open("densev")
	if err != nil {
		t.Fatal(err)
	}
	n, err := root.DownScan(wire.ScanConfig{BatchSize: 64, Deep: true})
	count := 0
	for ; err == nil && n != nil; n, err = n.Right() {
		if xml, merr := n.Materialize(); merr != nil || strings.Count(xml, "<a>") != 40 {
			t.Fatalf("child %d: subtree %q, err %v", count, xml, merr)
		}
		count++
		n.Release()
	}
	if err != nil || count != 100 {
		t.Fatalf("deep walk under MaxFrame 4096 saw %d of 100 children: %v", count, err)
	}
	if st := c.WireStats(); st.BatchesFetched < 100/8 {
		t.Fatalf("budget never cut a batch: %d batches for 100 frames of ~400 bytes under 4096", st.BatchesFetched)
	}
}

// TestEngineBatchKnobs: mix.Config.BatchSize/Prefetch reach a federated
// source — the engine asks the remote doc for batched delivery and the walk
// still produces the right answer.
func TestEngineBatchKnobs(t *testing.T) {
	lower := flatMediator(t, 40)
	c := dialFlat(t, lower, nil, wire.ClientConfig{BatchSize: -1}) // client default off…
	remoteRoot, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	upper := mix.NewWith(mix.Config{BatchSize: 8, Prefetch: true}) // …engine knob on
	upper.Catalog().AddDoc("&remote", wire.NewRemoteDoc("&remote", remoteRoot))
	doc, err := upper.Query(`
FOR $R IN document(&remote)/It
RETURN $R`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 40 {
		t.Fatalf("federated scan saw %d children, want 40", len(m.Children))
	}
	st := c.WireStats()
	if st.BatchesFetched == 0 {
		t.Fatal("engine batch knob never reached the wire client")
	}
	// 40 deep frames in adaptive batches: far fewer round trips than the
	// 121 (open + down + 40·(materialize+right+close)) the single-step
	// cursor pays.
	if st.RequestsSent >= 40 {
		t.Fatalf("federated batched scan took %d round trips", st.RequestsSent)
	}
}

// TestRemoteDocScanOptsTable pins how RemoteDoc reads the three execution
// fields of source.ScanOpts against what the three entry points it replaced
// produced at commit 0a6d8cb — the plain open = (client-default batching, no
// prefetch, synchronous), the batched open with (b, p) = (b, p, synchronous),
// the async open with (b, p) = (b, p, producer goroutine) — observed from
// outside as the children batches a 40-child drain costs: 0 unbatched; the
// doubling ladder 1+2+4+8+8+8+8+1 at cap 8 (1+2+4+8+16+9 at the client's
// default cap 64); 1+8+8+8+8+7 with prefetch, which jumps to the cap after
// the first frame (1+39 at cap 64). The fields are independent: "a parallel
// run implies prefetch" is stated once, by the engine, where it builds the
// ScanOpts.
func TestRemoteDocScanOptsTable(t *testing.T) {
	for _, tc := range []struct {
		opts    source.ScanOpts
		batches int64
		async   bool
	}{
		{source.ScanOpts{}, 6, false},
		{source.ScanOpts{BatchSize: 8}, 8, false},
		{source.ScanOpts{BatchSize: 8, Prefetch: true}, 6, false},
		{source.ScanOpts{BatchSize: -1}, 0, false},
		{source.ScanOpts{BatchSize: -1, Prefetch: true}, 0, false},
		{source.ScanOpts{BatchSize: 8, Parallel: true}, 8, true},
		{source.ScanOpts{BatchSize: 8, Prefetch: true, Parallel: true}, 6, true},
		{source.ScanOpts{Prefetch: true, Parallel: true}, 2, true},
	} {
		c := dialFlat(t, flatMediator(t, 40), nil, wire.ClientConfig{})
		root, err := c.Open("flatv")
		if err != nil {
			t.Fatal(err)
		}
		cur, err := wire.NewRemoteDoc("&remote", root).Open(tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if _, async := cur.(source.AsyncCursor); async != tc.async {
			t.Fatalf("%+v: async cursor = %v, want %v", tc.opts, async, tc.async)
		}
		n := 0
		for {
			_, ok, err := cur.Next()
			if err != nil {
				t.Fatalf("%+v: %v", tc.opts, err)
			}
			if !ok {
				break
			}
			n++
		}
		cur.Close()
		if n != 40 {
			t.Fatalf("%+v: scan delivered %d children, want 40", tc.opts, n)
		}
		if got := c.WireStats().BatchesFetched; got != tc.batches {
			t.Fatalf("%+v: drain cost %d children batches, want %d", tc.opts, got, tc.batches)
		}
	}
}

// TestRemoteCursorFirstTupleOneTrip: a remote scan hands a child over as
// soon as it has it and steps past it only when asked for the next one. So
// with prefetch off the first Next costs just the one children batch the
// open fetched, not also the second batch behind it. A scan closed after
// its first tuple still releases every handle it held.
func TestRemoteCursorFirstTupleOneTrip(t *testing.T) {
	var srv *wire.Server
	c := dialFlat(t, flatMediator(t, 40), func(s *wire.Server) { srv = s }, wire.ClientConfig{})
	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	before := c.WireStats()
	cur, err := wire.NewRemoteDoc("&remote", root).Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); err != nil || !ok {
		t.Fatalf("first Next = %v, %v", ok, err)
	}
	st := c.WireStats()
	if trips := st.RequestsSent - before.RequestsSent; trips != 1 {
		t.Fatalf("open and first Next took %d round trips, want 1", trips)
	}
	if batches := st.BatchesFetched - before.BatchesFetched; batches != 1 {
		t.Fatalf("open and first Next fetched %d children batches, want 1", batches)
	}
	cur.Close()
	if err := root.Release(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil { // carries the piggybacked releases
		t.Fatal(err)
	}
	if n := srv.LiveHandles(); n != 0 {
		t.Fatalf("%d server handles live after the scan closed", n)
	}
}

// TestWindowConcurrentGetters: goroutines walking Right from one window's
// first child at once all see the same children in the same order, and the
// window fetches each batch once — the sequential ladder 1+2+4+8+16+9 — so
// releasing every node drains the server's handles.
func TestWindowConcurrentGetters(t *testing.T) {
	var srv *wire.Server
	c := dialFlat(t, flatMediator(t, 40), func(s *wire.Server) { srv = s }, wire.ClientConfig{})
	root, err := c.Open("flatv")
	if err != nil {
		t.Fatal(err)
	}
	first, err := root.Down()
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([][]string, 8)
	var wg sync.WaitGroup
	for g := range seqs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := first; n != nil; {
				seqs[g] = append(seqs[g], n.ID())
				next, err := n.Right()
				if err != nil {
					t.Error(err)
					return
				}
				n = next
			}
		}(g)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range seqs[0] {
		seen[id] = true
	}
	if len(seqs[0]) != 40 || len(seen) != 40 {
		t.Fatalf("walker 0 saw %d children (%d distinct), want 40", len(seqs[0]), len(seen))
	}
	for g, seq := range seqs {
		if strings.Join(seq, ",") != strings.Join(seqs[0], ",") {
			t.Fatalf("walker %d saw %v, walker 0 saw %v", g, seq, seqs[0])
		}
	}
	if got := c.WireStats().BatchesFetched; got != 6 {
		t.Fatalf("8 concurrent walkers fetched %d children batches, want 6", got)
	}
	for n := first; n != nil; {
		next, err := n.Right()
		if err != nil {
			t.Fatal(err)
		}
		_ = n.Release()
		n = next
	}
	_ = root.Release()
	if err := c.Ping(); err != nil { // carries the piggybacked releases
		t.Fatal(err)
	}
	if n := srv.LiveHandles(); n != 0 {
		t.Fatalf("%d server handles live after every node was released", n)
	}
}

// drainDoc scans doc through a remote cursor and returns the children's ids
// and subtrees in order. A scan with stop > 0 is closed after that many
// children. A failure is reported with Errorf, so goroutines may scan.
func drainDoc(tb testing.TB, doc *wire.RemoteDoc, stop int) (ids []string, trees []*xtree.Node) {
	tb.Helper()
	cur, err := doc.Open(source.ScanOpts{})
	if err != nil {
		tb.Errorf("open: %v", err)
		return nil, nil
	}
	defer cur.Close()
	for stop <= 0 || len(ids) < stop {
		n, ok, err := cur.Next()
		if err != nil {
			tb.Errorf("scan: %v", err)
			return ids, trees
		}
		if !ok {
			break
		}
		ids, trees = append(ids, string(n.ID)), append(trees, n)
	}
	return ids, trees
}

// openFlat serves a flat view of n children on a fresh server and opens it.
func openFlat(tb testing.TB, n int) (*wire.Client, *wire.Server, *wire.RemoteNode) {
	tb.Helper()
	var srv *wire.Server
	c := dialFlat(tb, flatMediator(tb, n), func(s *wire.Server) { srv = s }, wire.ClientConfig{})
	root, err := c.Open("flatv")
	if err != nil {
		tb.Fatal(err)
	}
	return c, srv, root
}

// releaseAll releases root, sends the piggybacked releases and checks that
// the server holds no handle of the session.
func releaseAll(tb testing.TB, c *wire.Client, srv *wire.Server, root *wire.RemoteNode) {
	tb.Helper()
	if err := root.Release(); err != nil {
		tb.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		tb.Fatal(err)
	}
	if n := srv.LiveHandles(); n != 0 {
		tb.Fatalf("%d server handles live after every node was released", n)
	}
}

// TestWindowRescanDrainedIsFree: a node's window is its own, so scanning a
// drained node again — through a remote cursor or with Down/Right — costs no
// round trip, returns the same children in the same order, and hands over
// the subtrees the first scan parsed.
func TestWindowRescanDrainedIsFree(t *testing.T) {
	c, srv, root := openFlat(t, 40)
	doc := wire.NewRemoteDoc("&remote", root)
	ids, trees := drainDoc(t, doc, 0)
	if len(ids) != 40 {
		t.Fatalf("first scan saw %d children, want 40", len(ids))
	}
	before := c.WireStats().RequestsSent
	again, againTrees := drainDoc(t, doc, 0)
	if strings.Join(again, ",") != strings.Join(ids, ",") {
		t.Fatalf("rescan saw %v, first scan %v", again, ids)
	}
	for i := range trees {
		if againTrees[i] != trees[i] {
			t.Fatalf("rescan re-parsed child %d", i)
		}
	}
	var walked []string
	n, err := root.Down()
	for ; err == nil && n != nil; n, err = n.Right() {
		walked = append(walked, n.ID())
		_ = n.Release()
	}
	if err != nil || strings.Join(walked, ",") != strings.Join(ids, ",") {
		t.Fatalf("Down/Right rescan saw %v (%v), first scan %v", walked, err, ids)
	}
	if trips := c.WireStats().RequestsSent - before; trips != 0 {
		t.Fatalf("two rescans of a drained node took %d round trips, want 0", trips)
	}
	releaseAll(t, c, srv, root)
}

// TestWindowPartialScanThenRescan: a scan closed after five children leaves
// its window open on the root. A rescan re-seats the frames already fetched
// — released by the first scan's consumer or by Close — and fetches only
// past them, so every child crosses the wire once and the rescan still
// returns all of them in order.
func TestWindowPartialScanThenRescan(t *testing.T) {
	_, _, ref := openFlat(t, 40)
	want, _ := drainDoc(t, wire.NewRemoteDoc("&remote", ref), 0)

	c, srv, root := openFlat(t, 40)
	doc := wire.NewRemoteDoc("&remote", root)
	if first, _ := drainDoc(t, doc, 5); len(first) != 5 {
		t.Fatalf("partial scan saw %d children, want 5", len(first))
	}
	got, _ := drainDoc(t, doc, 0)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rescan after a partial scan saw %v, want %v", got, want)
	}
	if frames := c.WireStats().FramesBatched; frames != 40 {
		t.Fatalf("two scans of 40 children fetched %d frames, want each child once", frames)
	}
	releaseAll(t, c, srv, root)
}

// TestWindowDownFromReleasedChild: a child released during the first walk is
// handed out again without a handle, and descending from it costs exactly
// one replay round trip (children(skip=0, max=1) from the root) besides the
// batch that opens its own window.
func TestWindowDownFromReleasedChild(t *testing.T) {
	c, srv, root := openFlat(t, 12)
	n, err := root.Down()
	for ; err == nil && n != nil; n, err = n.Right() {
		_ = n.Release()
	}
	if err != nil {
		t.Fatal(err)
	}
	before := c.WireStats()
	child, err := root.Down()
	if err != nil || child == nil || child.Label() != "It" {
		t.Fatalf("rescan's first child: %v, %v", child, err)
	}
	item, err := child.Down()
	if err != nil || item == nil || item.Label() != "item" {
		t.Fatalf("descend from a released child: %v, %v", item, err)
	}
	after := c.WireStats()
	if trips, batches := after.RequestsSent-before.RequestsSent, after.BatchesFetched-before.BatchesFetched; trips != 2 || batches != 1 {
		t.Fatalf("descending from a released child took %d round trips (%d batches), want 2: one replay, one batch", trips, batches)
	}
	_ = item.Release()
	_ = child.Release()
	releaseAll(t, c, srv, root)
}

// TestWindowConcurrentRescan: after a partial scan, goroutines rescanning one
// node at once all see every child in order and share one subtree per child,
// and the window fetches each child once.
func TestWindowConcurrentRescan(t *testing.T) {
	c, srv, root := openFlat(t, 40)
	doc := wire.NewRemoteDoc("&remote", root)
	drainDoc(t, doc, 5)
	ids := make([][]string, 4)
	trees := make([][]*xtree.Node, len(ids))
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g], trees[g] = drainDoc(t, doc, 0)
		}(g)
	}
	wg.Wait()
	if len(ids[0]) != 40 {
		t.Fatalf("rescan 0 saw %d children, want 40", len(ids[0]))
	}
	for g := range ids {
		if strings.Join(ids[g], ",") != strings.Join(ids[0], ",") {
			t.Fatalf("rescan %d saw %v, rescan 0 saw %v", g, ids[g], ids[0])
		}
		for i := range trees[g] {
			if trees[g][i] != trees[0][i] {
				t.Fatalf("rescans %d and 0 parsed child %d twice", g, i)
			}
		}
	}
	if frames := c.WireStats().FramesBatched; frames != 40 {
		t.Fatalf("five scans of 40 children fetched %d frames, want each child once", frames)
	}
	releaseAll(t, c, srv, root)
}
