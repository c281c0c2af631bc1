package mix_test

import (
	"math"
	"testing"

	"mix"
	"mix/internal/workload"
)

// supplyMediator builds a mediator over the E20 two-server supply federation
// (db1: item+stock, db2: supplier).
func supplyMediator(t *testing.T, cfg mix.Config) *mix.Mediator {
	t.Helper()
	med := mix.NewWith(cfg)
	db1, db2 := workload.SupplyDBs(300, 30, 1, 20020208)
	med.AddRelationalSource(db1)
	med.AddRelationalSource(db2)
	return med
}

// federatedQueries are join plans that straddle the two supply servers; each
// is both an equivalence subject (cost-on answers must match cost-off byte
// for byte) and a prediction subject (estimated round trips and shipped
// tuples must track the observed source counters). shipped and trips pin
// E20's counts over this seeded federation: source tuples shipped and source
// queries with cost-based optimization off, then on. Pushdown alone already
// merges each stock filter into the item query, so the two agree.
var federatedQueries = []struct {
	name           string
	shipped, trips [2]int64
	query          string
}{
	// The syntactic order filters item by supplier (db2) before the
	// qty < 5 stock filter on db1; pushdown applies the stock filter first,
	// inside item's query. Applied in the syntactic order the chain ships
	// 335 tuples in 3 queries (TestSemiFoldE20 in internal/sqlgen).
	{"skewed-3way", [2]int64{35, 35}, [2]int64{2, 2}, workload.QSupply},
	{"3way-loose", [2]int64{138, 138}, [2]int64{2, 2}, `
FOR $I IN document(&db1.item)/item
    $S IN document(&db2.supplier)/supplier
    $K IN document(&db1.stock)/stock
WHERE $I/sid/data() = $S/sid/data() AND $I/iid/data() = $K/iid/data() AND $K/qty < 40
RETURN
  <Avail>
    $I
  </Avail> {$I}`},
	// One filter on the other server: nothing to merge.
	{"2way-cross", [2]int64{330, 330}, [2]int64{2, 2}, `
FOR $S IN document(&db2.supplier)/supplier
    $I IN document(&db1.item)/item
WHERE $S/sid/data() = $I/sid/data()
RETURN
  <Made>
    $I
  </Made> {$I}`},
}

// TestCostOptFederatedEquivalence: with cost-based optimization on, every
// federated plan's serialized answer is byte-identical to the cost-off
// answer, and tuples shipped and source round trips are exactly the pinned
// ones. Cost-based optimization changes none of them: pushdown already sends
// the skewed three-way join (the E20 scenario) the 35 tuples the best order
// ships.
func TestCostOptFederatedEquivalence(t *testing.T) {
	for _, fq := range federatedQueries {
		t.Run(fq.name, func(t *testing.T) {
			run := func(costOpt bool) (string, int64, int64) {
				med := supplyMediator(t, mix.Config{CostOpt: costOpt})
				doc, err := med.Query(fq.query)
				if err != nil {
					t.Fatal(err)
				}
				m := doc.Materialize()
				if err := doc.Err(); err != nil {
					t.Fatal(err)
				}
				s := med.Stats()
				return mix.SerializeXML(m), s.TuplesShipped, s.QueriesReceived
			}
			off, offShipped, offTrips := run(false)
			on, onShipped, onTrips := run(true)
			if on != off {
				t.Fatalf("cost-opt answer diverged\noff:\n%s\non:\n%s", off, on)
			}
			if got := [2]int64{offShipped, onShipped}; got != fq.shipped {
				t.Fatalf("tuples shipped, syntactic then cost order: %v, want %v", got, fq.shipped)
			}
			if got := [2]int64{offTrips, onTrips}; got != fq.trips {
				t.Fatalf("source round trips, syntactic then cost order: %v, want %v", got, fq.trips)
			}
		})
	}
}

// TestPredictedVsObservedRoundTrips checks the cost model's two currencies
// against reality: for each federated plan, the estimator's predicted round
// trips must land within 20% of the source-query counter observed when the
// same mediator executes the plan, and its predicted shipped tuples within a
// q-error (the larger of predicted/observed and observed/predicted) of 1.25
// of the tuples the sources shipped.
func TestPredictedVsObservedRoundTrips(t *testing.T) {
	for _, fq := range federatedQueries {
		t.Run(fq.name, func(t *testing.T) {
			med := supplyMediator(t, mix.Config{CostOpt: true})
			p, err := med.Prepare(fq.query, nil)
			if err != nil {
				t.Fatal(err)
			}
			est := p.Cost()
			doc, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			doc.Materialize()
			if err := doc.Err(); err != nil {
				t.Fatal(err)
			}
			s := med.Stats()
			observed, shipped := float64(s.QueriesReceived), float64(s.TuplesShipped)
			if observed == 0 || shipped == 0 || est.Shipped <= 0 {
				t.Fatalf("predicted %.1f tuples; observed %.0f source queries shipping %.0f tuples", est.Shipped, observed, shipped)
			}
			if rel := math.Abs(est.Trips-observed) / observed; rel > 0.2 {
				t.Fatalf("predicted %.1f round trips, observed %.0f (off by %.0f%%)",
					est.Trips, observed, 100*rel)
			}
			if q := math.Max(est.Shipped/shipped, shipped/est.Shipped); q > 1.25 {
				t.Fatalf("predicted %.1f tuples shipped, observed %.0f (q-error %.2f)", est.Shipped, shipped, q)
			}
			t.Logf("predicted %.1f trips and %.1f tuples, observed %.0f and %.0f",
				est.Trips, est.Shipped, observed, shipped)
		})
	}
}
