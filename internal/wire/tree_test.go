package wire_test

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"mix"
	"mix/internal/relstore"
	"mix/internal/shard"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xtree"
)

var updateRemoteIDs = flag.Bool("update-remote-ids", false,
	"rewrite testdata/remote_ids.golden from this run's coordinator answers")

// awkwardValues are the column values XML text does not carry verbatim:
// surrounding and lone whitespace, the empty string, markup characters and
// a line break.
var awkwardValues = []string{"  padded  ", " ", "", "a < b & c", "two\nlines"}

// awkwardDB holds n customers whose names cycle through awkwardValues.
func awkwardDB(n int) *relstore.DB {
	db := relstore.NewDB("db1")
	db.MustCreate(relstore.Schema{
		Relation: "customer",
		Columns:  []relstore.Column{{Name: "id", Type: relstore.TString}, {Name: "name", Type: relstore.TString}},
		Key:      []int{0},
	})
	for i := 0; i < n; i++ {
		db.MustInsert("customer", relstore.Str(fmt.Sprintf("C%06d", i)), relstore.Str(awkwardValues[i%len(awkwardValues)]))
	}
	return db
}

// custsMember serves db's customers as view custs over a pipe and returns
// the view's root.
func custsMember(tb testing.TB, db *relstore.DB) *wire.RemoteNode {
	tb.Helper()
	lower := mix.New()
	lower.AddRelationalSource(db)
	if _, err := lower.DefineView("custs", "FOR $C IN document(&db1.customer)/customer RETURN $C"); err != nil {
		tb.Fatal(err)
	}
	server, client := net.Pipe()
	srv := wire.NewServer(lower)
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClient(client)
	tb.Cleanup(func() { _ = c.Close() })
	root, err := c.Open("custs")
	if err != nil {
		tb.Fatal(err)
	}
	return root
}

// fleetOver mounts the three hash slices of db on customer id (orders go
// with their customer) as &fleet.
func fleetOver(tb testing.TB, db *relstore.DB) *mix.Mediator {
	tb.Helper()
	spec := shard.Spec{Mode: shard.ModeHash, N: 3, KeyPath: []string{"customer", "id"}}
	var members []shard.Member
	for i := 0; i < spec.N; i++ {
		slice := workload.ShardDB(db, spec, i, func(rel string, s relstore.Schema, row []relstore.Datum) string {
			if rel == "orders" {
				return row[s.ColIndex("cid")].String()
			}
			return row[s.ColIndex("id")].String()
		})
		id := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: id, Doc: wire.NewRemoteDoc("&fleet/"+id, custsMember(tb, slice))})
	}
	med := mix.NewWith(mix.Config{Parallelism: 4, Prefetch: true})
	if _, err := med.AddShardedSource("&fleet", spec, members, shard.Config{}); err != nil {
		tb.Fatal(err)
	}
	return med
}

// answer runs q to the end and returns its tree.
func answer(tb testing.TB, med *mix.Mediator, q string) *xtree.Node {
	tb.Helper()
	doc, err := med.Query(q)
	if err != nil {
		tb.Fatal(err)
	}
	defer doc.Close()
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestRemoteSubtreeFidelity: a member's rows reach the coordinator exactly
// as the member holds them. Over a RemoteDoc and over a 3-member fleet, every
// answer equals the local mediator's node by node, labels and structure:
// padded, blank and empty values, markup characters and line breaks included.
// (The XML text the subtrees used to cross in trimmed "  padded  " to
// "padded" and dropped " " and "", turning their name elements into leaves.)
func TestRemoteSubtreeFidelity(t *testing.T) {
	const n = 15
	local := mix.New()
	local.AddRelationalSource(awkwardDB(n))
	for _, id := range []string{"&remote", "&fleet"} {
		if err := local.AliasSource(id, "&db1.customer"); err != nil {
			t.Fatal(err)
		}
	}
	remote := mix.New()
	remote.Catalog().AddDoc("&remote", wire.NewRemoteDoc("&remote", custsMember(t, awkwardDB(n))))
	fleet := fleetOver(t, awkwardDB(n))
	for _, c := range []struct {
		med *mix.Mediator
		q   string
	}{
		{remote, "FOR $C IN document(&remote)/customer RETURN $C"},
		{fleet, "FOR $C IN document(&fleet)/customer RETURN $C"},
		{fleet, `FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C000002" RETURN $C`},
	} {
		want, got := answer(t, local, c.q), answer(t, c.med, c.q)
		if len(want.Children) == 0 {
			t.Fatalf("%s: the local mediator answered nothing", c.q)
		}
		if !xtree.EqualShape(got, want) {
			t.Errorf("%s:\n got %q\nwant %q", c.q, got, want)
		}
	}
}

// TestRemoteSubtreeIDsFrozen: the object ids a coordinator assigns to its
// members' subtrees — the remote id on a subtree's root, &<id>.<preorder
// index> below it — and the Skolem ids a query builds over them are the ones
// testdata/remote_ids.golden froze, one "id label" line per node in
// preorder.
func TestRemoteSubtreeIDsFrozen(t *testing.T) {
	fleet := fleetOver(t, workload.ScaleDB("db1", 6, 1, 42))
	var b strings.Builder
	for _, q := range []string{
		"FOR $C IN document(&fleet)/customer RETURN $C",
		"FOR $C IN document(&fleet)/customer $N IN $C/name RETURN <w> $N </w> {$C}",
	} {
		fmt.Fprintf(&b, "# %s\n", q)
		answer(t, fleet, q).Walk(func(n *xtree.Node) bool {
			fmt.Fprintf(&b, "%s %q\n", n.ID, n.Label)
			return true
		})
	}
	const golden = "testdata/remote_ids.golden"
	if *updateRemoteIDs {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("ids moved from %s:\n%s", golden, got)
	}
}
