package wire

import "sync"

// batchWindow is one parent's adaptive cursor over its children: the
// client-side half of the batched children op. The window fetches a batch
// only when a get asks for a child it lacks — the first batch carries one
// frame, so first-answer latency is the same as a single step, and each
// subsequent batch doubles toward the cap while the consumer keeps scanning.
// With prefetch on, the window skips the ladder: every batch after the first
// asks for the cap. Background read-ahead is not the window's job; a scan
// that wants it runs through source.Ahead (OpenAhead, the shard pumps).
//
// The window belongs to its parent (RemoteNode.kids) and lives while the
// parent holds the live handle it was filled under: the server memoizes a
// document's children per handle, so a later descent walks the seats already
// held and fetches only past them. A seat whose node was released is handed
// out again as a handleless copy (gen -1), as a node-cache seat is.
//
// Concurrency: get fetches on the calling goroutine with w.mu held across
// the round trip, so concurrent getters wait on w.mu and find the batch
// seated. The lock order is batchWindow.mu → RemoteNode.mu → Client.mu.
// Resilience is inherited from Client.do: a mid-batch connection drop
// surfaces as a typed error from get, and the next get retries, replaying
// the parent's path if the connection turned over.
type batchWindow struct {
	c      *Client
	parent *RemoteNode
	cap    int
	pre    bool
	deep   bool

	mu        sync.Mutex
	nodes     []*RemoteNode // fetched children, index = child index
	complete  bool          // no children exist past nodes
	nextSize  int           // next batch's Max
	delivered int           // highest index handed to the consumer
	// valEpoch is the node-cache epoch this window last validated the
	// server's data version under (-1: never). Cached frames are served only
	// while it matches the cache's current epoch — one ping per window per
	// connection generation buys the whole cached run.
	valEpoch int64
}

func newBatchWindow(c *Client, parent *RemoteNode, cap int, pre, deep bool) *batchWindow {
	return &batchWindow{
		c:         c,
		parent:    parent,
		cap:       cap,
		pre:       pre,
		deep:      deep,
		nextSize:  1,
		delivered: -1,
		valEpoch:  -1,
	}
}

// get returns child i, or (nil, nil) for ⊥ past the last child. A fetch
// failure is returned to this caller; the next get retries.
func (w *batchWindow) get(i int) (*RemoteNode, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i > w.delivered {
		w.delivered = i
	}
	for i >= len(w.nodes) && !w.complete {
		if err := w.fetchLocked(); err != nil {
			return nil, err
		}
	}
	if i >= len(w.nodes) {
		return nil, nil
	}
	n := w.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.released {
		return n, nil
	}
	// The seat's handle went back to the server: hand out a handleless copy,
	// whose first op that needs a handle replays children(skip=i, max=1).
	re := &RemoteNode{c: n.c, gen: -1, label: n.label, nodeID: n.nodeID, leaf: n.leaf, value: n.value,
		path: n.path, win: w, winIdx: i, enc: n.enc, hasEnc: n.hasEnc, tree: n.tree}
	w.nodes[i] = re
	return re, nil
}

// fetchLocked seats the window's next batch, from the node cache when it
// holds the run and from the wire otherwise.
func (w *batchWindow) fetchLocked() error {
	skip := len(w.nodes)
	if frames, complete := w.cachedLocked(skip); len(frames) > 0 {
		w.seatLocked(frames, -1, complete) // handleless; see cachedLocked
		return nil
	}
	resp, gen, err := w.c.do(Request{Op: "children", Skip: skip, Max: w.nextSize, Deep: w.deep}, w.parent)
	if err != nil {
		return err
	}
	w.c.noteBatch(len(resp.Frames))
	// An empty batch that promises more would spin the window; treat it as
	// exhaustion (defensive — the server never sends it).
	complete := !resp.More || len(resp.Frames) == 0
	if nc := w.c.cache; nc != nil {
		nc.store(w.parent.ID(), skip, resp.Frames, complete, w.deep, resp.DataVersion)
	}
	w.seatLocked(resp.Frames, gen, complete)
	return nil
}

// seatLocked appends one batch's frames as the window's next children and
// grows the window — the same way for a wire batch and a cached run, so a
// cached run that ends short of the tail hands the network the batch sizes
// an uncached walk would have used by this point. A frame carries its
// subtree when the window is deep or the cache kept one from a deep batch.
func (w *batchWindow) seatLocked(frames []NodeFrame, gen int64, complete bool) {
	for _, f := range frames {
		n := &RemoteNode{
			c:      w.c,
			handle: f.Handle,
			gen:    gen,
			label:  f.Label,
			nodeID: f.NodeID,
			leaf:   f.IsLeaf,
			value:  f.Value,
			path:   nodePath{parent: w.parent, child: true, childIdx: len(w.nodes)},
			win:    w,
			winIdx: len(w.nodes),
		}
		if w.deep || f.Tree != "" {
			n.enc, n.hasEnc = f.Tree, true
		}
		w.nodes = append(w.nodes, n)
	}
	w.complete = complete
	if w.pre {
		// Prefetch is the throughput mode: the consumer has declared it will
		// keep scanning, so after the one-frame first batch (kept small for
		// first-answer latency) the window jumps straight to the cap instead
		// of climbing the doubling ladder — each rung is a serial round trip
		// a draining consumer pays for nothing.
		w.nextSize = w.cap
	} else {
		w.nextSize = min(2*w.nextSize, w.cap)
	}
}

// cachedLocked returns the run of cached frames starting at child skip, or
// nothing when the network must serve the batch. Cached frames carry no
// handle (gen -1): the first op that needs a server-side handle replays the
// node's child path — the same lazy re-acquisition a redial uses — so a
// walk that only reads piggybacked labels/values/subtrees never pays a round
// trip per node.
//
// Before any cached frame is served, the window validates the server's data
// version once per connection epoch: a single ping, whose response carries
// the version and purges the cache if it moved (see nodeCache).
func (w *batchWindow) cachedLocked(skip int) (frames []NodeFrame, complete bool) {
	nc := w.c.cache
	if nc == nil || w.parent.ID() == "" {
		return nil, false
	}
	// Cold check before paying a validation round trip: if nothing usable is
	// cached at this position, the network fetch is happening anyway.
	if f, ok := nc.frames.Peek(nodeKey{parent: w.parent.ID(), idx: skip}); !ok || (w.deep && !f.hasTree) {
		nc.misses.Add(1)
		return nil, false
	}
	if w.valEpoch != nc.epoch.Load() {
		if err := w.c.Ping(); err != nil {
			return nil, false // let the network path surface the failure
		}
		nc.validations.Add(1)
		// The ping itself may have redialed; record the epoch it landed on.
		w.valEpoch = nc.epoch.Load()
	}
	frames, complete = nc.run(w.parent.ID(), skip, w.deep)
	if len(frames) == 0 {
		nc.misses.Add(1)
		return nil, false
	}
	nc.hits.Add(1)
	return frames, complete
}

// abandon releases the window's undelivered seats (cursor Close): seats past
// the last delivered index are queued for piggybacked release. Delivered
// nodes are untouched — their owners release them. The window stays open: a
// later descent re-seats the released seats and fetches past them.
func (w *batchWindow) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := w.delivered + 1; i < len(w.nodes); i++ {
		n := w.nodes[i]
		n.mu.Lock()
		if !n.released {
			n.released = true
			w.c.deferRelease(n.handle, n.gen)
		}
		n.mu.Unlock()
	}
}
