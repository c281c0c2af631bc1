package wire

import (
	"sync"
	"sync/atomic"

	"mix/internal/cache"
)

// nodeKey addresses one cached child frame: the parent's object id plus the
// child index. Object ids — not handles — key the cache, because handles die
// with their session while ids are the paper's stable client-resident names:
// the cache survives batch windows, reconnects, and even whole client
// sessions against the same endpoint data.
type nodeKey struct {
	parent string
	idx    int
}

// cachedFrame is one retained NodeFrame, its (session-scoped) handle
// zeroed. Nodes rebuilt from a cached frame are handleless; the first
// operation that needs a server-side handle lazily re-acquires it by
// replaying the node's path — one children(skip=idx, max=1) round trip —
// exactly the machinery fault recovery already uses after a redial.
type cachedFrame struct {
	NodeFrame
	hasTree bool // Tree holds the subtree a deep batch shipped
	// last marks the final child: the frame arrived in a batch that reported
	// no more siblings. It bounds completeness per frame, so the cache needs
	// no side table of child counts; an evicted last frame simply degrades
	// the tail of a cached run into one cheap network fetch.
	last bool
}

// nodeCache is the client-side navigation node cache: children batches are
// retained across batch windows and sessions, so a re-walk of an already
// visited document serves frames from memory instead of the wire.
//
// Consistency is versioned, not swept: every successful response piggybacks
// the server's DataVersion (see Response.DataVersion) and observe purges the
// whole cache the moment it moves. A batch window validates once per
// connection epoch before serving cached frames — a single ping round trip,
// since ping's response carries the version like any other — and reconnects
// bump the epoch, so a mutate-then-redial sequence re-validates before any
// cached frame is served. Within a validated window, served frames are a
// snapshot: a mutation racing the walk is observed at the next validation
// point, matching the consistency the uncached protocol gives a client that
// already fetched its batch.
type nodeCache struct {
	frames *cache.LRU[nodeKey, cachedFrame]

	mu  sync.Mutex
	ver int64 // last observed server DataVersion; 0 = none observed yet

	epoch       atomic.Int64 // bumped on reconnect; windows re-validate
	hits        atomic.Int64 // lookups served from cache
	misses      atomic.Int64 // lookups that fell through to the network
	validations atomic.Int64 // dedicated ping validations issued
}

func newNodeCache(entries int) *nodeCache {
	return &nodeCache{frames: cache.NewLRU[nodeKey, cachedFrame](entries)}
}

// observe folds a server-reported data version into the cache. Any change —
// a source registered, a row inserted — purges every cached frame: the
// protocol trades granularity for an O(1) check on every response.
// Lock order: callers may hold Client.mu; nodeCache locks are leaves.
func (nc *nodeCache) observe(v int64) {
	if v == 0 {
		return // response predates versioning (never from our server)
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.ver == v {
		return
	}
	if nc.ver != 0 {
		nc.frames.Purge()
	}
	nc.ver = v
}

// bumpEpoch invalidates every window's validation (reconnect): cached
// frames are not served again until a fresh response vouches for the
// endpoint's data version.
func (nc *nodeCache) bumpEpoch() { nc.epoch.Add(1) }

// store retains one children batch. complete reports that no siblings exist
// past the batch (Response.More was false); ver is the data version the
// batch's response carried — a batch whose version is no longer current is
// dropped, so a slow fetch can never re-populate the cache with frames a
// concurrent purge just removed. A non-deep batch overwriting a deep entry
// keeps the previously shipped subtree — the navigation fields are
// identical and the subtree is the expensive part.
func (nc *nodeCache) store(parent string, start int, frames []NodeFrame, complete, deep bool, ver int64) {
	if parent == "" {
		return // unaddressable parent: nothing stable to key on
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if ver != 0 && nc.ver != ver {
		return
	}
	for i, f := range frames {
		k := nodeKey{parent: parent, idx: start + i}
		f.Handle = 0
		cf := cachedFrame{NodeFrame: f, hasTree: deep, last: complete && i == len(frames)-1}
		if old, ok := nc.frames.Peek(k); !deep && ok && old.hasTree {
			cf.Tree, cf.hasTree = old.Tree, true
		}
		nc.frames.Put(k, cf)
	}
	if complete && len(frames) == 0 && start > 0 {
		// Empty final batch: the previously stored frame is the last child.
		k := nodeKey{parent: parent, idx: start - 1}
		if prev, ok := nc.frames.Peek(k); ok && !prev.last {
			prev.last = true
			nc.frames.Put(k, prev)
		}
	}
}

// run returns the contiguous cached frames from child index start onward,
// stopping at the first gap (or the first frame missing its subtree when
// needTree is set). complete reports that the run ends at the last child, so
// the caller needs no confirming round trip. An empty run is a miss.
func (nc *nodeCache) run(parent string, start int, needTree bool) (frames []NodeFrame, complete bool) {
	if parent == "" {
		return nil, false
	}
	for i := start; ; i++ {
		f, ok := nc.frames.Get(nodeKey{parent: parent, idx: i})
		if !ok || (needTree && !f.hasTree) {
			return frames, false
		}
		frames = append(frames, f.NodeFrame)
		if f.last {
			return frames, true
		}
	}
}
