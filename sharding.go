package mix

import "mix/internal/shard"

// AddShardedSource registers a sharded virtual view: a document whose
// top-level children are partitioned across the member documents by spec
// (member i serves shard i). Queries over id see one logical document; the
// shard coordinator fans scans out across the members concurrently (under
// Parallelism > 1), merges the streams back in document order when the
// plan can observe order, and routes decontextualized point queries only
// to the member whose partition can match.
//
// Members are typically wire.RemoteDocs over lower mixserve shards; any
// source.Doc works (tests use local partitions). The returned coordinator
// exposes routing Stats for observability.
func (m *Mediator) AddShardedSource(id string, spec shard.Spec, members []shard.Member, cfg shard.Config) (*shard.Doc, error) {
	d, err := shard.NewDoc(id, spec, members, cfg)
	if err != nil {
		return nil, err
	}
	m.cat.AddDoc(id, d)
	return d, nil
}
