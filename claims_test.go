package mix_test

import (
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"

	"mix"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/workload"
	"mix/internal/xmas"
)

// The paper has no evaluation section: its performance claims are statements
// about how many tuples a source ships and how much work the mediator does,
// and over a seeded ScaleDB those are exact numbers. TestPaperClaims pins
// every count EXPERIMENTS.md quotes for E10-E14 and logs the tables, so
//
//	go test -run TestPaperClaims -v .
//
// regenerates them. "shipped" is tuples a relational source handed to the
// mediator; "mediator" is tuples produced by all plan operators (engine
// metrics). Timings are not this file's business: `bash bench/run.sh`.

// claimsMediator serves rootv over n customers × ordersPer orders (seed 42,
// order values uniform in [0, 100000)).
func claimsMediator(t *testing.T, n, ordersPer int, cfg mix.Config) *mix.Mediator {
	t.Helper()
	return rootvMediator(t, workload.ScaleDB("db1", n, ordersPer, 42), cfg)
}

// checkClaim logs rows as an aligned table and fails unless every cell
// equals the pinned table's (whitespace between cells is not compared).
func checkClaim(t *testing.T, want string, rows [][]any) {
	t.Helper()
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = fmt.Sprint(c)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush()
	t.Log("\n" + b.String())
	cellsOf := func(s string) string { return strings.Join(strings.Fields(s), " ") }
	if cellsOf(b.String()) != cellsOf(want) {
		t.Errorf("counts moved; pinned (and quoted by EXPERIMENTS.md):%s", want)
	}
}

func openRootv(t *testing.T, med *mix.Mediator) *mix.Document {
	t.Helper()
	doc, err := med.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// mustDrain materializes a query answer and returns its top-level children.
func mustDrain(t *testing.T, doc *mix.Document, err error) int {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	return len(m.Children)
}

func TestPaperClaims(t *testing.T) {
	// E10, §1/§4: "Web users browse just a few results from their query and
	// then move on" — lazy evaluation ships what navigation visits, the
	// conventional full-answer mediator ships everything, whatever k is.
	t.Run("E10 lazy vs eager", func(t *testing.T) {
		rows := [][]any{{"N", "k", "lazy_shipped", "eager_shipped"}}
		for _, n := range []int{100, 1000} {
			eager := claimsMediator(t, n, 5, mix.Config{})
			mustDrain(t, openRootv(t, eager), nil)
			for _, k := range []int{1, 10, 100} {
				lazy := claimsMediator(t, n, 5, mix.Config{})
				doc := openRootv(t, lazy)
				if got := lazy.Stats().TuplesShipped; got != 0 {
					t.Fatalf("Open shipped %d tuples before any navigation", got)
				}
				// Browse k CustRecs: into the customer element and its
				// first column, and into the first OrderInfo's order tuple.
				node := doc.Root().Down()
				for i := 0; node != nil && i < k; i++ {
					if c := node.Down(); c != nil {
						c.Down()
						if oi := c.Right(); oi != nil {
							oi.Down()
						}
					}
					node = node.Right()
				}
				doc.Close()
				rows = append(rows, []any{n, k, lazy.Stats().TuplesShipped, eager.Stats().TuplesShipped})
			}
		}
		checkClaim(t, `
N     k    lazy_shipped  eager_shipped
100   1    6             500
100   10   51            500
100   100  500           500
1000  1    6             5000
1000  10   51            5000
1000  100  501           5000`, rows)
	})

	// E11, §6: the trivial composition ships the base relations; the
	// rewritten and pushed one "results in the transfer of the minimum
	// amount of data" — about 3 tuples per qualifying customer.
	t.Run("E11 naive vs rewritten composition", func(t *testing.T) {
		rows := [][]any{{"N", "T", "naive_shipped", "optimized_shipped", "results"}}
		for _, n := range []int{100, 1000} {
			for _, threshold := range []int{50000, 90000, 99000} {
				query := fmt.Sprintf(`
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > %d
RETURN $R`, threshold)
				run := func(cfg mix.Config) (int64, int) {
					med := claimsMediator(t, n, 3, cfg)
					doc, err := med.Query(query)
					results := mustDrain(t, doc, err)
					return med.Stats().TuplesShipped, results
				}
				naive, naiveResults := run(mix.Config{DisableRewrite: true, DisablePushdown: true})
				opt, results := run(mix.Config{})
				if naiveResults != results {
					t.Fatalf("N=%d T=%d: naive answered %d results, optimized %d", n, threshold, naiveResults, results)
				}
				rows = append(rows, []any{n, threshold, naive, opt, results})
			}
		}
		checkClaim(t, `
N     T      naive_shipped  optimized_shipped  results
100   50000  400            270                90
100   90000  400            81                 27
100   99000  400            15                 5
1000  50000  4000           2571               857
1000  90000  4000           699                233
1000  99000  4000           102                34`, rows)
	})

	// E12, §5: materializing the tree under x "is unacceptable ... the tree
	// rooted at x may be large"; decontextualization sends x's identity and
	// the combined predicate to the source instead.
	t.Run("E12 decontextualize vs materialize", func(t *testing.T) {
		const inPlace = `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 50000
RETURN $O`
		rows := [][]any{{"N", "orders/cust", "decon_shipped", "mat_shipped"}}
		for _, per := range []int{2, 10, 50} {
			shipped := func(queryFrom func(*mix.Mediator, *mix.Node, string) (*mix.Document, error)) int64 {
				med := claimsMediator(t, 1000, per, mix.Config{})
				firstCustRec := openRootv(t, med).Root().Down()
				med.ResetStats()
				doc, err := queryFrom(med, firstCustRec, inPlace)
				mustDrain(t, doc, err)
				return med.Stats().TuplesShipped
			}
			rows = append(rows, []any{1000, per,
				shipped((*mix.Mediator).QueryFrom), shipped((*mix.Mediator).QueryFromMaterialized)})
		}
		checkClaim(t, `
N     orders/cust  decon_shipped  mat_shipped
1000  2            1              2
1000  10           4              10
1000  50           25             50`, rows)
	})

	// E13, §4: "the stateless gBy assumes that its input is sorted along the
	// group-by variables. The stateful gBy makes no such assumptions, and
	// hence needs buffers" — what reaching the FIRST group of rootv costs.
	t.Run("E13 presorted vs stateful gBy", func(t *testing.T) {
		rows := [][]any{{"N", "variant", "shipped_first_group", "mediator_tuples"}}
		for _, n := range []int{100, 1000} {
			for _, variant := range []string{"presorted", "stateful"} {
				med := claimsMediator(t, n, 5, mix.Config{})
				view, _ := med.View("rootv")
				plan := xmas.Clone(view.ExecPlan)
				if variant == "stateful" {
					xmas.Walk(plan, func(op xmas.Op) bool {
						if gb, ok := op.(*xmas.GroupBy); ok {
							gb.Presorted = false
						}
						return true
					})
				}
				prog, err := engine.Compile(plan, med.Catalog())
				if err != nil {
					t.Fatal(err)
				}
				res, metrics := prog.RunWithMetrics()
				if first := qdom.NewDocument(res, nil).Root().Down(); first != nil {
					if c := first.Down(); c != nil {
						c.Right() // first OrderInfo
					}
				}
				rows = append(rows, []any{n, variant, med.Stats().TuplesShipped, metrics.Total()})
			}
		}
		checkClaim(t, `
N     variant    shipped_first_group  mediator_tuples
100   presorted  1                    7
100   stateful   500                  1005
1000  presorted  1                    7
1000  stateful   5000                 10005`, rows)
	})

	// E14, §6's three effects (construction removal, condition pushing,
	// semijoin introduction), each switched off alone on the Figure 12
	// query at T=90000, N=1000. Rewriting without SQL pushdown ships more
	// than not rewriting: rule 9 duplicates the source subplan.
	t.Run("E14 rewriter ablation", func(t *testing.T) {
		const query = `
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > 90000
RETURN $R`
		rows := [][]any{{"variant", "shipped", "mediator_tuples", "results"}}
		for _, v := range []struct {
			name string
			cfg  mix.Config
		}{
			{"full", mix.Config{}},
			{"no-semijoin-push", mix.Config{RewriteOptions: rewrite.Options{NoSemijoinPush: true}}},
			{"no-dead-elim", mix.Config{RewriteOptions: rewrite.Options{NoDeadElim: true}}},
			{"no-sql-pushdown", mix.Config{DisablePushdown: true}},
			{"no-rewrite", mix.Config{DisableRewrite: true, DisablePushdown: true}},
		} {
			med := claimsMediator(t, 1000, 3, v.cfg)
			p, err := med.Prepare(query, nil)
			if err != nil {
				t.Fatal(err)
			}
			doc, metrics, err := p.RunWithMetrics()
			results := mustDrain(t, doc, err)
			rows = append(rows, []any{v.name, med.Stats().TuplesShipped, metrics.Total(), results})
		}
		checkClaim(t, `
variant           shipped  mediator_tuples  results
full              699      3029             233
no-semijoin-push  3233     9631             233
no-dead-elim      3270     10049            233
no-sql-pushdown   8000     33532            233
no-rewrite        4000     33270            233`, rows)
	})
}
