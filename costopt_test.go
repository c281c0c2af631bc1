package mix_test

import (
	"fmt"
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
// for byte) and a prediction subject (estimated round trips must track the
// observed source-query counter). shipped and trips pin E20's counts over
// this seeded federation: source tuples shipped and source queries under the
// syntactic join order, then under the cost-chosen one.
var federatedQueries = []struct {
	name           string
	shipped, trips [2]int64
	query          string
}{
	// The syntactic order joins across the servers before the qty < 5
	// filter on db1 applies; E20's bar is at least 1.5x fewer tuples.
	{"skewed-3way", [2]int64{335, 35}, [2]int64{3, 2}, workload.QSupply},
	{"3way-loose", [2]int64{438, 138}, [2]int64{3, 2}, `
FOR $I IN document(&db1.item)/item
    $S IN document(&db2.supplier)/supplier
    $K IN document(&db1.stock)/stock
WHERE $I/sid/data() = $S/sid/data() AND $I/iid/data() = $K/iid/data() AND $K/qty < 40
RETURN
  <Avail>
    $I
  </Avail> {$I}`},
	// Already optimal: the reorderer must leave it alone.
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
// ones: never more than under the syntactic order, 9.6x fewer on the skewed
// three-way join (the E20 scenario).
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

// TestPredictedVsObservedRoundTrips checks the cost model's trip currency
// against reality: for each federated plan, the estimator's predicted round
// trips must land within 20% of the source-query counter observed when the
// same mediator executes the plan.
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
			observed := float64(med.Stats().QueriesReceived)
			if observed == 0 {
				t.Fatal("no source queries observed")
			}
			if rel := math.Abs(est.Trips-observed) / observed; rel > 0.2 {
				t.Fatalf("predicted %.1f round trips, observed %.0f (off by %.0f%%)",
					est.Trips, observed, 100*rel)
			}
			t.Log(fmt.Sprintf("predicted %.1f trips, observed %.0f", est.Trips, observed))
		})
	}
}
