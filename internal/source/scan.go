package source

// KeyConstraint is one equality the query applies to every top-level child
// a scan delivers, extracted by the engine's plan analysis. Path == nil
// constrains the child's object id (the decontextualized $v = &oid form);
// otherwise Path is a downward label path starting at the child's own label
// and Value must equal the atomized value at that path.
type KeyConstraint struct {
	Path  []string
	Value string
}

// ScanOpts is the one description of a scan that every Doc.Open receives:
// the execution's batching and parallelism knobs plus what compile-time plan
// analysis knows about the scan. Local documents ignore it; a remote
// document batches, sizes its batches and opens in the background as asked; a
// coordinator (the sharded views of internal/shard) also prunes members and
// picks a merge strategy from it, and hands each member a ScanOpts derived
// from its own. Whoever builds one from execution options sets Prefetch
// whenever it sets Parallel (overlapping source access is the point of a
// parallel run); documents read the two fields independently and never
// re-derive that rule.
type ScanOpts struct {
	// BatchSize caps one batch of children from a batch-capable source: 0
	// means the source's own default, 1 or negative one round trip per
	// child.
	BatchSize int
	// Prefetch says the scan will be drained: a batching document skips its
	// doubling ladder and asks for the BatchSize cap after the one-frame
	// first batch. Read-ahead on a goroutine is Parallel's, not Prefetch's.
	Prefetch bool
	// Parallel reports that the execution runs with Parallelism > 1: a
	// document whose open is worth moving off the consumer goroutine (remote
	// mediators, nested federated documents) returns at once with a cursor
	// whose connection setup and read-ahead run on a producer goroutine, so
	// distinct sources are contacted concurrently, and a coordinator may
	// spawn member pumps. Such a cursor is an AsyncCursor, which the engine
	// registers for force-close.
	Parallel bool
	// Unordered reports that the relative order of the delivered children
	// cannot be observed in the final answer (xmas.OrderDemand), so the
	// document may deliver them in any deterministic order. The zero value
	// is the safe one: callers without plan analysis get document order.
	Unordered bool
	// Keys are equalities every delivered child must satisfy; the document
	// may use them to avoid contacting partitions that cannot match. They
	// are a routing hint, never a filter: delivering non-matching children
	// is harmless (the plan still filters), dropping matching ones is not.
	Keys []KeyConstraint
}

// ResilientCursor marks cursors that can keep delivering elements after
// returning a *SourceUnavailableError — a shard fan-out surviving the loss
// of one member. Under the partial-result policy the engine notes each such
// error and keeps pulling instead of ending the scan, so every lost member
// gets its own annotation while the survivors' children still arrive.
type ResilientCursor interface {
	ElemCursor
	// Resilient is a marker; it performs no work.
	Resilient()
}

// TransferStats is a wire-transfer snapshot of one remote endpoint, in
// source-layer terms so coordinators can aggregate fleet traffic without
// importing the wire package.
type TransferStats struct {
	RoundTrips int64
	BytesSent  int64
	BytesRecv  int64
	Redials    int64
	Resumes    int64
	// Breaker is the endpoint's circuit-breaker state ("closed", "open",
	// "half-open"), empty when the transport has no breaker.
	Breaker string
}

// TransferReporter is implemented by documents reached over a counted
// transport (wire.RemoteDoc).
type TransferReporter interface {
	TransferStats() TransferStats
}

// ShardHealthReporter exposes per-member availability of a coordinator
// document; Catalog.Health flattens the members in as "<doc>/<member>".
type ShardHealthReporter interface {
	ShardHealth() map[string]Health
}

// ShardTransferReporter exposes per-member transfer counters of a
// coordinator document.
type ShardTransferReporter interface {
	ShardTransferStats() map[string]TransferStats
}

// ShardCounter reports across how many partitions a coordinator document
// fans a full scan out — the cost model divides the scan's critical-path
// round trips by it, and the engine takes it as the sign that the document
// reads ScanOpts.Unordered and ScanOpts.Keys (only a document that merges
// partitions has a use for them), so plans scanning one get the analysis.
type ShardCounter interface {
	ShardCount() int
}

// ShardHealth collects the per-member availability of every registered
// coordinator document, keyed by document id then member id.
func (c *Catalog) ShardHealth() map[string]map[string]Health {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]map[string]Health{}
	for id, d := range c.docs {
		if shr, ok := d.(ShardHealthReporter); ok {
			out[id] = shr.ShardHealth()
		}
	}
	return out
}

// TransferStats collects the per-endpoint wire counters of every registered
// document that has any: remote documents under their own id, coordinator
// members flattened as "<doc>/<member>".
func (c *Catalog) TransferStats() map[string]TransferStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := map[string]TransferStats{}
	for id, d := range c.docs {
		if tr, ok := d.(TransferReporter); ok {
			out[id] = tr.TransferStats()
		}
		if str, ok := d.(ShardTransferReporter); ok {
			for mid, ts := range str.ShardTransferStats() {
				out[id+"/"+mid] = ts
			}
		}
	}
	return out
}
