package workload

import (
	"mix/internal/relstore"
	"mix/internal/shard"
	"mix/internal/wrapper"
)

// Fleet partitioning helpers: horizontal slices of the standard workload
// databases, so tests and experiments can stand up an N-shard fleet whose
// union is exactly the unsharded database.

// ShardDB returns the idx-th horizontal slice of db under spec: every
// relation keeps the rows whose partition key the spec assigns to shard
// idx. key extracts a row's partition key; nil means the wrapper tuple oid
// (matching node-id partitioning of the relation's virtual view).
func ShardDB(db *relstore.DB, spec shard.Spec, idx int, key func(rel string, s relstore.Schema, row []relstore.Datum) string) *relstore.DB {
	out := relstore.NewDB(db.Name)
	for _, rel := range db.Relations() {
		t, ok := db.Table(rel)
		if !ok {
			continue
		}
		out.MustCreate(t.Schema)
		scan, _ := db.Scan(rel)
		all := scan.All()
		var row []relstore.Datum
		for ordinal := 0; ; ordinal++ {
			var ok bool
			if row, ok = all.Next(row[:0]); !ok {
				break
			}
			k := ""
			if key != nil {
				k = key(rel, t.Schema, row)
			} else {
				k = string(wrapper.TupleOID(t.Schema, row, ordinal))
			}
			if spec.ShardOf(k) == idx {
				out.MustInsert(rel, row...)
			}
		}
	}
	return out
}

// ShardScaleDB returns the idx-th slice of ScaleDB(name, nCustomers,
// ordersPer, seed) partitioned on the customer id value: each shard keeps
// the customers the spec assigns to it plus their orders (co-partitioned
// by cid), so a per-shard CustRec view unions to the unsharded one.
func ShardScaleDB(name string, nCustomers, ordersPer int, seed int64, spec shard.Spec, idx int) *relstore.DB {
	full := ScaleDB(name, nCustomers, ordersPer, seed)
	return ShardDB(full, spec, idx, func(rel string, s relstore.Schema, row []relstore.Datum) string {
		if rel == "orders" {
			return row[s.ColIndex("cid")].String()
		}
		return row[s.ColIndex("id")].String()
	})
}
