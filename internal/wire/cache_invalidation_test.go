package wire_test

import (
	"fmt"
	"testing"

	"mix"
	"mix/internal/relstore"
	"mix/internal/wire"
	"mix/internal/workload"
)

// TestCacheInvalidationMatrix is the end-to-end invalidation contract: for
// every combination of the three cache layers (mediator plan cache, mediator
// source-result cache, client node cache) a row inserted mid-session is
// observed by the very next walk — and again after a faultnet-induced
// redial. No setting may ever serve stale data; caching changes the work,
// never the answer.
func TestCacheInvalidationMatrix(t *testing.T) {
	for _, plan := range []int{0, 64} {
		for _, src := range []int{0, 64} {
			for _, node := range []int{0, 1024} {
				plan, src, node := plan, src, node
				name := fmt.Sprintf("plan=%d/source=%d/node=%d", plan, src, node)
				t.Run(name, func(t *testing.T) {
					db := workload.PaperDB()
					med := mix.NewWith(mix.Config{PlanCache: plan, SourceCache: src})
					med.AddRelationalSource(db)
					if _, err := med.DefineView("custv", `
FOR $C IN document(&db1.customer)/customer
RETURN <C> $C </C>`); err != nil {
						t.Fatal(err)
					}
					e := newEndpoint(med)
					cfg := fastCfg()
					cfg.BatchSize = 8
					cfg.NodeCache = node
					c := dialEndpoint(t, e, cfg)

					walk := func(wantRows int, when string) {
						t.Helper()
						got := walkChildren(t, c, "custv")
						if len(got) != wantRows {
							t.Fatalf("%s: walk saw %d customers, want %d (stale cache?)",
								when, len(got), wantRows)
						}
					}

					walk(2, "initial")
					walk(2, "warm") // populate/exercise whatever caches are on

					db.MustInsert("customer",
						relstore.Str("GHI678"), relstore.Str("GHILtd."), relstore.Str("Chicago"))
					walk(3, "post-mutation")

					// Mutate again and sever the connection: the redial path
					// must also observe fresh data.
					db.MustInsert("customer",
						relstore.Str("JKL901"), relstore.Str("JKLGmbH"), relstore.Str("Berlin"))
					e.killConn()
					walk(4, "post-mutation+redial")
					if c.Redials() == 0 {
						t.Fatal("the killed connection never forced a redial")
					}
				})
			}
		}
	}
}

// TestWindowRescanAfterRedialSeesNewRows: a node keeps its window only while
// the handle it was filled under is live. On that handle a rescan returns the
// list the server memoized, even after an insert; once the connection has
// been redialed, a descent lists the children afresh and sees the row
// inserted meanwhile — from a root still holding its dead handle, and from
// one that another op has already replayed onto the new connection.
func TestWindowRescanAfterRedialSeesNewRows(t *testing.T) {
	db := workload.PaperDB()
	med := mix.New()
	med.AddRelationalSource(db)
	if _, err := med.DefineView("custv", `
FOR $C IN document(&db1.customer)/customer
RETURN <C> $C </C>`); err != nil {
		t.Fatal(err)
	}
	e := newEndpoint(med)
	c := dialEndpoint(t, e, fastCfg())
	count := func(root *wire.RemoteNode) int {
		t.Helper()
		k := 0
		n, err := root.Down()
		for ; err == nil && n != nil; n, err = n.Right() {
			k++
		}
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	var roots []*wire.RemoteNode
	for range 2 {
		root, err := c.Open("custv")
		if err != nil {
			t.Fatal(err)
		}
		if got := count(root); got != 2 {
			t.Fatalf("first walk saw %d customers, want 2", got)
		}
		roots = append(roots, root)
	}
	db.MustInsert("customer", relstore.Str("GHI678"), relstore.Str("GHILtd."), relstore.Str("Chicago"))
	if got := count(roots[0]); got != 2 {
		t.Fatalf("a rescan on the same handle saw %d customers, want the memoized 2", got)
	}
	e.killConn()
	if err := c.Ping(); err != nil { // observes the dead connection and redials
		t.Fatal(err)
	}
	if _, err := roots[1].Materialize(); err != nil { // replays roots[1]
		t.Fatal(err)
	}
	for i, root := range roots {
		if got := count(root); got != 3 {
			t.Fatalf("root %d: a descent after the redial saw %d customers, want 3", i, got)
		}
	}
	if c.Redials() == 0 {
		t.Fatal("the killed connection never forced a redial")
	}
}
