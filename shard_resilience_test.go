package mix_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/shard"
	"mix/internal/source"
	"mix/internal/wire"
	"mix/internal/workload"
)

// buildShardFleet stands up a k-shard wire fleet over n customers of the
// scale database partitioned on customer id: k lower mediators each serve
// their slice through a view, the upper mediator mounts them as one sharded
// source "&fleet". fault configures the injector on each shard's connection
// (the zero Config injects nothing); there is no redial. Returns the upper
// mediator, the coordinator document and the per-shard customer counts.
func buildShardFleet(t *testing.T, cfg mix.Config, k, n int, fault func(shard int) faultnet.Config) (*mix.Mediator, *shard.Doc, []int) {
	t.Helper()
	spec := shard.Spec{Mode: shard.ModeHash, N: k, KeyPath: []string{"customer", "id"}}
	var members []shard.Member
	counts := make([]int, k)
	for i := 0; i < k; i++ {
		slice := workload.ShardScaleDB("db1", n, 1, 42, spec, i)
		rows, _ := slice.RowsSnapshot("customer")
		counts[i] = len(rows)
		lower := mix.New()
		lower.AddRelationalSource(slice)
		if _, err := lower.DefineView("custs",
			"FOR $C IN document(&db1.customer)/customer RETURN $C"); err != nil {
			t.Fatal(err)
		}
		server, client := net.Pipe()
		srv := wire.NewServer(lower)
		go func() {
			defer server.Close()
			_ = srv.ServeConn(server)
		}()
		c := wire.NewClientConfig(faultnet.Wrap(client, fault(i)), wire.ClientConfig{
			OpTimeout:        2 * time.Second,
			MaxRetries:       -1,
			BreakerThreshold: -1,
		})
		t.Cleanup(func() { _ = c.Close() })
		root, err := c.Open("custs")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("shard%d", i)
		members = append(members, shard.Member{ID: id, Doc: wire.NewRemoteDoc("&fleet/"+id, root)})
	}
	med := mix.NewWith(cfg)
	doc, err := med.AddShardedSource("&fleet", spec, members, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return med, doc, counts
}

// TestShardMemberLossMidQuery kills one shard of a wire fleet mid-query. In
// the default fail-fast mode the query surfaces a typed
// SourceUnavailableError naming the lost shard; under
// Config.PartialResults the merged scan keeps the surviving shards'
// children (plus whatever the dead shard delivered before the cut) and the
// result carries exactly one SourceUnavailable annotation naming the shard.
func TestShardMemberLossMidQuery(t *testing.T) {
	// Shard 1's connection dies for good 1500 bytes into the scan.
	lose1 := func(shard int) faultnet.Config {
		if shard == 1 {
			return faultnet.Config{CloseAfterBytes: 1500}
		}
		return faultnet.Config{}
	}
	const fail = 1
	q := "FOR $C IN document(&fleet)/customer RETURN $C"

	t.Run("fail-fast", func(t *testing.T) {
		med, _, _ := buildShardFleet(t, mix.Config{}, 3, 120, lose1)
		doc, err := med.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		m := doc.Materialize()
		var sue *source.SourceUnavailableError
		if err := doc.Err(); !errors.As(err, &sue) {
			t.Fatalf("want SourceUnavailableError, got %v", err)
		}
		if sue.Source != "&fleet[shard1]" {
			t.Fatalf("error names %q, want &fleet[shard1]", sue.Source)
		}
		for _, kid := range m.Children {
			if kid.Label == "SourceUnavailable" {
				t.Fatal("fail-fast mode must not annotate")
			}
		}
	})

	t.Run("partial", func(t *testing.T) {
		med, _, counts := buildShardFleet(t, mix.Config{PartialResults: true}, 3, 120, lose1)
		doc, err := med.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		m := doc.Materialize()
		if err := doc.Err(); err != nil {
			t.Fatalf("partial mode must not fail the query: %v", err)
		}
		real, ann, note := 0, 0, ""
		for _, kid := range m.Children {
			if kid.Label == "SourceUnavailable" {
				ann++
				if len(kid.Children) == 1 {
					note = kid.Children[0].Label
				}
			} else {
				real++
			}
		}
		if ann != 1 {
			t.Fatalf("want exactly one SourceUnavailable annotation, got %d", ann)
		}
		if !strings.Contains(note, "&fleet[shard1]") {
			t.Fatalf("annotation %q must name the lost shard", note)
		}
		survivors := counts[0] + counts[2]
		total := survivors + counts[fail]
		if real < survivors {
			t.Fatalf("partial result lost surviving shards' children: %d < %d", real, survivors)
		}
		if real >= total {
			t.Fatalf("dead shard's scan of %d children cannot have completed (got %d total)", counts[fail], real)
		}
	})
}

// TestShardFanOutLatencyBound is E21's gate. Every member connection carries
// 2 ms of injected latency per I/O, so a scan's wall clock is round trips ×
// latency: a 3-member fleet, one pump per member, must scan 120 customers at
// least 2× faster than one member serving them all (best of 3 freshly built
// fleets: a member root keeps the children it fetched, so a second scan over
// one mount costs no round trip and times nothing), answer byte-identically,
// and route a point query on the partition key to exactly one member.
// Batches of 2 keep the scan at some 60 round trips against little CPU, so
// the ratio (2.6× measured) is sleep-bound and holds under -race and on a
// loaded host.
func TestShardFanOutLatencyBound(t *testing.T) {
	cfg := mix.Config{Parallelism: 8, BatchSize: 2, Prefetch: true}
	slow := func(int) faultnet.Config {
		return faultnet.Config{LatencyProb: 1, Latency: 2 * time.Millisecond}
	}
	scan := func(k int) (string, time.Duration) {
		var answer string
		var best time.Duration
		for run := 0; run < 3; run++ {
			med, _, _ := buildShardFleet(t, cfg, k, 120, slow)
			start := time.Now()
			doc, err := med.Query("FOR $C IN document(&fleet)/customer RETURN $C")
			if err != nil {
				t.Fatal(err)
			}
			m := doc.Materialize()
			if err := doc.Err(); err != nil {
				t.Fatal(err)
			}
			if wall := time.Since(start); best == 0 || wall < best {
				best = wall
			}
			answer = mix.SerializeXML(m)
		}
		return answer, best
	}
	one, wall1 := scan(1)
	three, wall3 := scan(3)
	if one != three {
		t.Fatal("1-member and 3-member fleets answered the scan differently")
	}
	t.Logf("scan of 120 customers at 2 ms latency: 1 member %v, 3 members %v (%.1fx)",
		wall1, wall3, float64(wall1)/float64(wall3))
	if wall1 < 2*wall3 {
		t.Fatalf("3-member scan %v is not 2x faster than 1-member %v", wall3, wall1)
	}

	med, fleet, _ := buildShardFleet(t, cfg, 3, 240, slow)
	doc, err := med.Query(`FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C000007" RETURN $C`)
	if err != nil {
		t.Fatal(err)
	}
	if m := doc.Materialize(); doc.Err() != nil || len(m.Children) != 1 {
		t.Fatalf("point query: %d customers, err %v", len(m.Children), doc.Err())
	}
	st := fleet.Stats()
	routed := 0
	for _, n := range st.Routes {
		if n > 0 {
			routed++
		}
	}
	if routed != 1 || st.Pruned == 0 {
		t.Fatalf("point query on the partition key routed to %d members, pruned %d scans; want 1 member, pruned", routed, st.Pruned)
	}
}

// TestFleetWireShape pins the benchmark fleet's wire shape: 3 members over
// 240 customers, a scan and then a point query on the partition key, both at
// `mixql -shards`'s configuration. Each member pays its open and the three
// batches of its scan (1, then 64, then the rest), and nothing more: the
// point query's routed member rescans the root it drained a moment earlier,
// whose window already holds every child. Both answers equal the unsharded
// mediator's.
func TestFleetWireShape(t *testing.T) {
	const scanQ = "FOR $C IN document(&fleet)/customer RETURN $C"
	const pointQ = `FOR $C IN document(&fleet)/customer WHERE $C/id/data() = "C000007" RETURN $C`
	none := func(int) faultnet.Config { return faultnet.Config{} }
	med, fleet, counts := buildShardFleet(t, mix.Config{Parallelism: 4, Prefetch: true}, 3, 240, none)
	whole := mix.New()
	whole.AddRelationalSource(workload.ScaleDB("db1", 240, 1, 42))
	if err := whole.AliasSource("&fleet", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{scanQ, pointQ} {
		want, got := queryXML(t, whole, q), queryXML(t, med, q)
		if got != want {
			t.Fatalf("%s: the fleet answered\n%s\nthe unsharded mediator\n%s", q, got, want)
		}
	}
	if routed := len(fleet.Stats().Routes); routed == 0 {
		t.Fatal("no scan reached a member")
	}
	members := med.HealthReport().Wire
	if len(members) != 3 {
		t.Fatalf("wire counters for %d endpoints, want the 3 members", len(members))
	}
	for id, ts := range members {
		if ts.RoundTrips != 4 {
			t.Errorf("member %s (of %v customers) made %d round trips, want 4: open + 3 scan batches", id, counts, ts.RoundTrips)
		}
	}
}

// queryXML runs q to the end and serializes its answer, which names no
// object ids: a sharded and an unsharded answer compare equal.
func queryXML(t *testing.T, med *mix.Mediator, q string) string {
	t.Helper()
	doc, err := med.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	return mix.SerializeXML(m)
}
