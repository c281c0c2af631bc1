package wire_test

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/testleak"
	"mix/internal/wire"
)

// Parallel federated access coverage: an upper mediator joining two remote
// (wire) sources. With Parallelism <= 1 the wire protocol must be exactly
// today's sequential protocol (asserted via WireStats struct equality); with
// Parallelism > 1 the answer must stay byte-identical while the two remote
// scans overlap.

// dialFlatFault is dialFlat plus fault injection on the client transport.
func dialFlatFault(tb testing.TB, med *mix.Mediator, cfg wire.ClientConfig, faults faultnet.Config) *wire.Client {
	tb.Helper()
	server, client := net.Pipe()
	srv := wire.NewServer(med)
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClientConfig(faultnet.Wrap(client, faults), cfg)
	tb.Cleanup(func() {
		_ = c.Close()
		testleak.NoHandles(tb, "server node handles", srv.LiveHandles)
	})
	return c
}

const fedJoinQuery = `
FOR $A IN document(&ra)/It, $B IN document(&rb)/It
WHERE $A/item = $B/item
RETURN <P> $A $B </P>`

// fedSetup builds the two-lower-mediator federation and returns the upper
// mediator, the two wire clients (for their stats), and a teardown that
// closes both connections — called before each test's leak check so the
// per-connection server goroutines are gone too.
func fedSetup(tb testing.TB, nA, nB, parallelism int, clientCfg wire.ClientConfig, faults faultnet.Config) (*mix.Mediator, *wire.Client, *wire.Client, func()) {
	tb.Helper()
	ca := dialFlatFault(tb, flatMediator(tb, nA), clientCfg, faults)
	cb := dialFlatFault(tb, flatMediator(tb, nB), clientCfg, faults)
	rootA, err := ca.Open("flatv")
	if err != nil {
		tb.Fatal(err)
	}
	rootB, err := cb.Open("flatv")
	if err != nil {
		tb.Fatal(err)
	}
	upper := mix.NewWith(mix.Config{Parallelism: parallelism})
	upper.Catalog().AddDoc("&ra", wire.NewRemoteDoc("&ra", rootA))
	upper.Catalog().AddDoc("&rb", wire.NewRemoteDoc("&rb", rootB))
	return upper, ca, cb, func() {
		_ = ca.Close()
		_ = cb.Close()
	}
}

func runFedJoin(tb testing.TB, upper *mix.Mediator, wantMatches int) string {
	tb.Helper()
	return runFedQuery(tb, upper, fedJoinQuery, wantMatches)
}

func runFedQuery(tb testing.TB, upper *mix.Mediator, query string, wantMatches int) string {
	tb.Helper()
	doc, err := upper.Query(query)
	if err != nil {
		tb.Fatal(err)
	}
	defer doc.Close()
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		tb.Fatal(err)
	}
	if len(m.Children) != wantMatches {
		tb.Fatalf("federated join produced %d matches, want %d", len(m.Children), wantMatches)
	}
	return m.Pretty()
}

// TestParallelismOneWireExact: Parallelism 0 and 1 drive the exact same wire
// protocol — every counter equal, for both the default and the
// batch-disabled client configuration.
func TestParallelismOneWireExact(t *testing.T) {
	defer testleak.Check(t)()
	for _, cfg := range []wire.ClientConfig{{}, {BatchSize: -1}} {
		name := fmt.Sprintf("batch=%d", cfg.BatchSize)
		statsAt := func(p int) (wire.WireStats, wire.WireStats) {
			upper, ca, cb, teardown := fedSetup(t, 12, 9, p, cfg, faultnet.Config{})
			runFedJoin(t, upper, 9)
			sa, sb := ca.WireStats(), cb.WireStats()
			teardown()
			return sa, sb
		}
		a0, b0 := statsAt(0)
		a1, b1 := statsAt(1)
		if !reflect.DeepEqual(a0, a1) || !reflect.DeepEqual(b0, b1) {
			t.Fatalf("%s: Parallelism=1 changed the wire protocol:\n p0: %+v %+v\n p1: %+v %+v", name, a0, b0, a1, b1)
		}
		if a0.RequestsSent == 0 || b0.RequestsSent == 0 {
			t.Fatalf("%s: no wire traffic recorded: %+v %+v", name, a0, b0)
		}
		// Pin the single-step protocol absolutely: open + down + n·right (the
		// last hits ⊥) + materialize/close traffic for 12 and 9 children.
		if cfg.BatchSize == -1 && (a0.RequestsSent != 38 || b0.RequestsSent != 29) {
			t.Fatalf("single-step protocol changed: ra=%d rb=%d round trips, want 38/29", a0.RequestsSent, b0.RequestsSent)
		}
		t.Logf("%s: sequential protocol pinned at ra=%d rb=%d round trips", name, a0.RequestsSent, b0.RequestsSent)
	}
}

// TestParallelFederatedJoinIdentical: the join answer is byte-identical at
// every parallelism level, while Parallelism > 1 actually overlaps the two
// remote scans (each lower client still sees a full scan's traffic).
func TestParallelFederatedJoinIdentical(t *testing.T) {
	defer testleak.Check(t)()
	var want string
	for _, p := range []int{0, 2, 4} {
		upper, ca, cb, teardown := fedSetup(t, 15, 11, p, wire.ClientConfig{}, faultnet.Config{})
		got := runFedJoin(t, upper, 11)
		scannedA, scannedB := ca.WireStats().RequestsSent, cb.WireStats().RequestsSent
		teardown()
		if p == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("parallelism %d diverged:\n--- got ---\n%s\n--- want ---\n%s", p, got, want)
		}
		if scannedA == 0 || scannedB == 0 {
			t.Fatalf("parallelism %d: a lower source was never scanned", p)
		}
	}
}

// TestParallelFederatedJoinOverlaps is the gate that a parallel join overlaps
// its two inputs. Both lower connections carry 2 ms of injected latency per
// I/O and batches of 2 keep each 40-item scan at some 20 round trips against
// little CPU, so wall clock is round trips × latency: sequentially the join
// pays scan(ra) + scan(rb); under Parallelism 4 the probe side prefetches
// through its exchange while the build side drains, and it pays the longer
// of the two. Best of 3. Measured 1.85× (1.6-1.8× under -race) both with the
// par*Join operators and with the batch joins that replaced them, and 1.3×
// with the probe side's exchange taken out, so the 1.5× bound is sleep-bound
// and separates the two.
//
// The second case puts the federated join on the build side of another join,
// whose drain pulls 256 rows at a time instead of the adaptive window's 1: the
// inner join must still open its build side after the first probe row, not
// after the probe side's last. Its plan wants four producers (two cats, the
// outer probe side, the inner probe side), so it runs at Parallelism 8; there
// the par*Join operators measured 1.85× too, and batch joins that wait for a
// full first probe pull 1.02×.
func TestParallelFederatedJoinOverlaps(t *testing.T) {
	defer testleak.Check(t)()
	slow := faultnet.Config{LatencyProb: 1, Latency: 2 * time.Millisecond}
	for _, tc := range []struct {
		name, query string
		parallelism int
	}{
		{"top-level", fedJoinQuery, 4},
		{"build side of a join", `
FOR $C IN document(&loc)/item, $A IN document(&ra)/It, $B IN document(&rb)/It
WHERE $A/item = $B/item AND $C = $A/item
RETURN <P> $C $A $B </P>`, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			join := func(p int) (string, time.Duration) {
				var answer string
				var best time.Duration
				for run := 0; run < 3; run++ {
					upper, _, _, teardown := fedSetup(t, 40, 40, p, wire.ClientConfig{BatchSize: 2}, slow)
					if err := upper.AddXMLSource("&loc", flatXML(40)); err != nil {
						t.Fatal(err)
					}
					start := time.Now()
					answer = runFedQuery(t, upper, tc.query, 40)
					if wall := time.Since(start); best == 0 || wall < best {
						best = wall
					}
					teardown()
				}
				return answer, best
			}
			seq, wallSeq := join(1)
			par, wallPar := join(tc.parallelism)
			if seq != par {
				t.Fatalf("Parallelism 1 and %d answered the join differently", tc.parallelism)
			}
			t.Logf("40 ⋈ 40 at 2 ms latency: sequential %v, parallel %v (%.2fx)",
				wallSeq, wallPar, float64(wallSeq)/float64(wallPar))
			if 2*wallSeq < 3*wallPar {
				t.Fatalf("parallel join %v is not 1.5x faster than sequential %v: the two scans did not overlap", wallPar, wallSeq)
			}
		})
	}
}

// TestParallelFederatedJoinStress runs the federated join under injected
// latency and abandons half the results mid-navigation; with -race it is the
// cross-layer data-race probe, and the leak check proves every producer
// (exchange, async open, wire prefetch) is joined.
func TestParallelFederatedJoinStress(t *testing.T) {
	defer testleak.Check(t)()
	faults := faultnet.Config{LatencyProb: 0.5, Latency: 200 * time.Microsecond}
	for round := 0; round < 6; round++ {
		upper, _, _, teardown := fedSetup(t, 25, 20, 4, wire.ClientConfig{}, faults)
		doc, err := upper.Query(fedJoinQuery)
		if err != nil {
			t.Fatal(err)
		}
		if round%2 == 0 {
			// Full navigation.
			m := doc.Materialize()
			if err := doc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(m.Children) != 20 {
				t.Fatalf("round %d: %d matches, want 20", round, len(m.Children))
			}
		} else {
			// Partial navigation, then abandon: Close must cancel and join
			// everything still in flight.
			if n := doc.Root().Down(); n == nil {
				t.Fatalf("round %d: no first match", round)
			}
		}
		doc.Close()
		doc.Close() // idempotent
		teardown()
	}
}
