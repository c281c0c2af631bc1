package wire

import (
	"fmt"

	"mix/internal/source"
	"mix/internal/xtree"
)

// RemoteDoc adapts a remote virtual document (a node at another MIX
// mediator, reached through the wire protocol) as a source document of a
// local mediator — true distributed federation: the upper mediator's
// navigation turns into wire round trips, which turn into demand-driven
// source access at the lower mediator.
//
// Laziness is preserved across top-level children: the children arrive in
// the root's batch window, fetched when a pull reaches a child the window
// lacks, each frame carrying its subtree in the tree encoding — labels and
// values exactly as the lower mediator holds them. The window belongs to the
// root, so a second scan of the same root walks the frames already held and
// fetches only past them.
//
// Failure policy: any failure to reach the lower mediator (transport
// error, circuit open, server rejection) surfaces from the cursor as a
// typed *source.SourceUnavailableError, which the engine either propagates
// (fail-fast, the default) or converts into an annotated partial result
// under the opt-in policy (mix.Config.PartialResults). The doc also
// implements source.HealthReporter, exposing the client's circuit-breaker
// state through Catalog.Health.
type RemoteDoc struct {
	id   string
	root *RemoteNode
}

// NewRemoteDoc wraps a remote node (usually a result root from
// Client.Open/Query) as a document with the given source id.
func NewRemoteDoc(id string, root *RemoteNode) *RemoteDoc {
	return &RemoteDoc{id: id, root: root}
}

// RootID implements source.Doc.
func (d *RemoteDoc) RootID() string { return d.id }

// Health implements source.HealthReporter: the endpoint's breaker state.
func (d *RemoteDoc) Health() source.Health {
	if d.root == nil {
		return source.Health{State: "closed"}
	}
	snap := d.root.c.BreakerSnapshot()
	h := source.Health{
		State:               snap.State.String(),
		ConsecutiveFailures: snap.ConsecutiveFailures,
	}
	if snap.LastErr != nil {
		h.LastError = snap.LastErr.Error()
	}
	return h
}

// TransferStats implements source.TransferReporter: the endpoint client's
// wire counters restated in source-layer terms, so fleet coordinators can
// aggregate per-shard traffic without importing this package.
func (d *RemoteDoc) TransferStats() source.TransferStats {
	if d.root == nil {
		return source.TransferStats{}
	}
	st := d.root.c.WireStats()
	return source.TransferStats{
		RoundTrips: st.RequestsSent,
		BytesSent:  st.BytesSent,
		BytesRecv:  st.BytesRecv,
		Redials:    st.Redials,
		Resumes:    st.Resumes,
		Breaker:    d.root.c.BreakerSnapshot().State.String(),
	}
}

// Open implements source.Doc: a cursor over the remote root's children,
// which arrive in adaptive deep batches (each frame ships its subtree, so
// the per-child materialize round trip disappears too). opts.BatchSize 0
// takes the client's configured batch size; 1 or negative falls back to one
// round trip per step+materialize. opts.Prefetch jumps the window to the cap
// after its one-frame first batch. Under opts.Parallel the remote open (a
// network round trip) and a bounded read-ahead run on a source.Ahead
// producer goroutine, so a parallel execution contacts distinct remote
// mediators concurrently and fetches batches while the engine consumes.
// Order and key hints do not apply to a single remote document.
func (d *RemoteDoc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	open := func() (source.ElemCursor, error) {
		deep := opts.BatchSize == 0 && d.root.c.cfg.BatchSize > 1 || opts.BatchSize > 1
		first, err := d.root.DownScan(ScanConfig{BatchSize: opts.BatchSize, Prefetch: opts.Prefetch, Deep: deep})
		if err != nil {
			return nil, &source.SourceUnavailableError{
				Source: d.id,
				Err:    fmt.Errorf("opening remote doc: %w", err),
			}
		}
		return &remoteCursor{src: d.id, next: first}, nil
	}
	if opts.Parallel {
		return source.OpenAhead(open, 16), nil
	}
	return open()
}

// remoteCursor scans a remote root's children through the root's batch
// window and hands over each child's subtree as a local tree, decoded once
// from its frame (decodeTree numbers the ids below the remote one) and kept
// on the child's node for the next scan.
type remoteCursor struct {
	src  string
	next *RemoteNode // the child Next returns, once last has stepped to it
	last *RemoteNode // the child Next returned last; nil before the first
}

// Next hands over the current child as soon as it has it. It steps right
// from the child it returned before at the start of the next call, not
// before returning: a step can wait for the next batch, and the first tuple
// of a scan must not wait for the second batch behind it.
func (c *remoteCursor) Next() (*xtree.Node, bool, error) {
	if c.last != nil {
		next, err := c.last.Right()
		if err != nil {
			return nil, false, c.unavailable(err)
		}
		// The consumed child's handle is no longer needed; release it so
		// the server session's handle table stays bounded during long
		// scans.
		_ = c.last.Release()
		c.last, c.next = nil, next
	}
	if c.next == nil {
		return nil, false, nil
	}
	cur := c.next
	n, err := cur.subtree()
	if err != nil {
		return nil, false, c.unavailable(err)
	}
	c.next, c.last = nil, cur
	return n, true, nil
}

func (c *remoteCursor) unavailable(err error) error {
	return &source.SourceUnavailableError{Source: c.src, Err: err}
}

// Close releases the cursor's outstanding server-side handle — the child
// Next returned last, or the one it would return next — and abandons its
// batch window (frames fetched but not yet handed over are queued for
// piggybacked release, so partial scans leak no handles). The window stays
// the root's: a later scan re-seats those frames without a round trip.
func (c *remoteCursor) Close() {
	held := c.next
	if held == nil {
		held = c.last
	}
	c.next, c.last = nil, nil
	if held == nil {
		return
	}
	if held.win != nil {
		held.win.abandon()
	}
	_ = held.Release()
}
