package wire

import "testing"

// TestNodeCacheStoreDropsStaleBatch: a batch whose response carried a data
// version a purge has since superseded is not stored, so none of its frames
// is served afterwards; the same batch stamped with the current version is.
func TestNodeCacheStoreDropsStaleBatch(t *testing.T) {
	batch := []NodeFrame{{Label: "a", NodeID: "&a"}, {Label: "b", NodeID: "&b"}}
	nc := newNodeCache(64)
	nc.observe(1)
	nc.store("&p", 0, batch, true, false, 1)
	if frames, _ := nc.run("&p", 0, false); len(frames) != 2 {
		t.Fatalf("a current batch served %d frames, want 2", len(frames))
	}
	nc.observe(2) // the data changed: purge
	nc.store("&p", 0, batch, true, false, 1)
	if frames, _ := nc.run("&p", 0, false); len(frames) != 0 {
		t.Fatalf("a batch stamped with the purged version served %d frames", len(frames))
	}
	for i := range batch {
		if _, ok := nc.frames.Peek(nodeKey{parent: "&p", idx: i}); ok {
			t.Fatalf("frame %d of the stale batch was stored", i)
		}
	}
	nc.store("&p", 0, batch, true, false, 2)
	if frames, complete := nc.run("&p", 0, false); len(frames) != 2 || !complete {
		t.Fatalf("a batch stamped with the current version served %d frames (complete %v)", len(frames), complete)
	}
}
