// Package experiment implements the measurement harnesses for the
// performance claims of the paper (EXPERIMENTS.md, experiments E10-E14).
// The paper's evaluation is qualitative; these harnesses turn each claim
// into numbers — wall time and, more importantly, tuples shipped between
// mediator and sources, the quantity MIX's lazy evaluation and query
// pushdown minimize. cmd/mixbench prints the tables; bench_test.go wraps
// the same code as Go benchmarks.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"mix"
	"mix/internal/engine"
	"mix/internal/qdom"
	"mix/internal/rewrite"
	"mix/internal/workload"
	"mix/internal/xmas"
)

// Table is one experiment's output.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// mediatorOver builds a mediator over a generated customers/orders database
// with the Q1 view registered as rootv.
func mediatorOver(nCustomers, ordersPer int, cfg mix.Config) *mix.Mediator {
	med := mix.NewWith(cfg)
	med.AddRelationalSource(workload.ScaleDB("db1", nCustomers, ordersPer, 42))
	must(med.AliasSource("&root1", "&db1.customer"))
	must(med.AliasSource("&root2", "&db1.orders"))
	mustView(med.DefineView("rootv", workload.Q1))
	return med
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func mustView(_ *mix.View, err error) {
	if err != nil {
		panic(err)
	}
}

// browse visits the first k CustRec children of a lazy document, descending
// into the customer element and the first OrderInfo of each — the "browse a
// few results and move on" behaviour of paper Section 1.
func browse(doc *mix.Document, k int) int {
	visited := 0
	node := doc.Root().Down()
	for node != nil && visited < k {
		if c := node.Down(); c != nil { // customer element
			c.Down() // its first column
			if oi := c.Right(); oi != nil {
				oi.Down() // the order tuple
			}
		}
		visited++
		node = node.Right()
	}
	return visited
}

// LazyVsEager is experiment E10: time-to-results and tuples shipped as a
// function of how much of the answer the client browses, lazy QDOM vs. the
// conventional full-answer mediator.
func LazyVsEager(sizes []int, ordersPer int, browseKs []int) Table {
	t := Table{
		Title:  "E10 lazy vs eager (Q1 view; browse k of N customers)",
		Note:   "paper claim (§1,§4): demand-driven evaluation fetches only what navigation needs",
		Header: []string{"N", "k", "lazy_shipped", "eager_shipped", "lazy_ms", "eager_ms"},
	}
	for _, n := range sizes {
		for _, k := range browseKs {
			if k > n {
				continue
			}
			// Lazy: open the view, browse k.
			medL := mediatorOver(n, ordersPer, mix.Config{})
			medL.ResetStats()
			start := time.Now()
			docL, err := medL.Open("rootv")
			must(err)
			browse(docL, k)
			lazyDur := time.Since(start)
			docL.Close()
			lazyShipped := medL.Stats().TuplesShipped

			// Eager: materialize everything, then browse k (free).
			medE := mediatorOver(n, ordersPer, mix.Config{})
			medE.ResetStats()
			start = time.Now()
			docE, err := medE.Open("rootv")
			must(err)
			docE.Materialize()
			eagerDur := time.Since(start)
			docE.Close()
			eagerShipped := medE.Stats().TuplesShipped

			t.Rows = append(t.Rows, []string{
				itoa(n), itoa(k),
				i64(lazyShipped), i64(eagerShipped),
				ms(lazyDur), ms(eagerDur),
			})
		}
	}
	return t
}

// Composition is experiment E11: tuples shipped for a selective query over
// the view, naive composition vs. the full rewrite+pushdown pipeline,
// sweeping the selection threshold (order values are uniform in
// [0, 100000), so threshold T keeps ≈(1-T/100000) of orders).
func Composition(sizes []int, thresholds []int64) Table {
	t := Table{
		Title:  "E11 composition: naive vs rewritten+pushed (customers with an order > T)",
		Note:   "paper claim (§6): pushing the combined conditions transfers the minimum amount of data",
		Header: []string{"N", "T", "naive_shipped", "optimized_shipped", "naive_ms", "opt_ms", "results"},
	}
	for _, n := range sizes {
		for _, threshold := range thresholds {
			query := fmt.Sprintf(`
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > %d
RETURN $R`, threshold)

			run := func(cfg mix.Config) (int64, time.Duration, int) {
				med := mediatorOver(n, 3, cfg)
				med.ResetStats()
				start := time.Now()
				doc, err := med.Query(query)
				must(err)
				m := doc.Materialize()
				must(doc.Err())
				return med.Stats().TuplesShipped, time.Since(start), len(m.Children)
			}
			naiveShipped, naiveDur, nRes := run(mix.Config{DisableRewrite: true, DisablePushdown: true})
			optShipped, optDur, oRes := run(mix.Config{})
			if nRes != oRes {
				panic(fmt.Sprintf("experiment: result divergence %d vs %d", nRes, oRes))
			}
			t.Rows = append(t.Rows, []string{
				itoa(n), i64(threshold),
				i64(naiveShipped), i64(optShipped),
				ms(naiveDur), ms(optDur), itoa(nRes),
			})
		}
	}
	return t
}

// Decontext is experiment E12: answering an in-place query from a CustRec
// node by decontextualization vs. by materializing the subtree and
// evaluating locally (the strategy the paper rejects).
func Decontext(nCustomers int, ordersPers []int) Table {
	t := Table{
		Title:  "E12 in-place query: decontextualize vs materialize-subtree",
		Note:   "paper claim (§5): conveying the node's identity to the sources beats fetching the subtree",
		Header: []string{"N", "orders/cust", "decon_shipped", "mat_shipped", "decon_ms", "mat_ms"},
	}
	inPlace := `
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 50000
RETURN $O`
	for _, per := range ordersPers {
		navTo := func(med *mix.Mediator) *mix.Node {
			doc, err := med.Open("rootv")
			must(err)
			return doc.Root().Down() // first CustRec
		}

		medD := mediatorOver(nCustomers, per, mix.Config{})
		node := navTo(medD)
		medD.ResetStats()
		start := time.Now()
		docD, err := medD.QueryFrom(node, inPlace)
		must(err)
		docD.Materialize()
		deconDur := time.Since(start)
		deconShipped := medD.Stats().TuplesShipped

		medM := mediatorOver(nCustomers, per, mix.Config{})
		nodeM := navTo(medM)
		medM.ResetStats()
		start = time.Now()
		docM, err := medM.QueryFromMaterialized(nodeM, inPlace)
		must(err)
		docM.Materialize()
		matDur := time.Since(start)
		matShipped := medM.Stats().TuplesShipped

		t.Rows = append(t.Rows, []string{
			itoa(nCustomers), itoa(per),
			i64(deconShipped), i64(matShipped),
			ms(deconDur), ms(matDur),
		})
	}
	return t
}

// GroupBy is experiment E13: the stateless presorted group-by of Table 1 vs
// the buffering stateful one, measured by what reaching the FIRST result
// group costs — in source transfer, in mediator-side operator work (tuples
// produced across the plan), and in latency.
func GroupBy(sizes []int, ordersPer int) Table {
	t := Table{
		Title:  "E13 group-by: presorted (stateless, Table 1) vs stateful (buffered)",
		Note:   "paper claim (§4): with sorted input the stateless gBy streams; otherwise buffers are needed",
		Header: []string{"N", "variant", "shipped_first_group", "mediator_tuples", "ms_first_group"},
	}
	for _, n := range sizes {
		for _, variant := range []string{"presorted", "stateful"} {
			med := mediatorOver(n, ordersPer, mix.Config{})
			view, _ := med.View("rootv")
			plan := view.ExecPlan
			if variant == "stateful" {
				plan = forceStateful(plan)
			}
			prog, err := engine.Compile(plan, med.Catalog())
			must(err)
			med.ResetStats()
			start := time.Now()
			res, metrics := prog.RunWithMetrics()
			doc := qdom.NewDocument(res, nil)
			first := doc.Root().Down()
			if first != nil {
				if c := first.Down(); c != nil {
					c.Right() // first OrderInfo
				}
			}
			dur := time.Since(start)
			t.Rows = append(t.Rows, []string{
				itoa(n), variant,
				i64(med.Stats().TuplesShipped), i64(metrics.Total()), ms(dur),
			})
		}
	}
	return t
}

// forceStateful clones the plan with every group-by downgraded to the
// buffering implementation.
func forceStateful(plan xmas.Op) xmas.Op {
	clone := xmas.Clone(plan)
	var fix func(op xmas.Op) xmas.Op
	fix = func(op xmas.Op) xmas.Op {
		ins := op.Inputs()
		newIns := make([]xmas.Op, len(ins))
		for i, in := range ins {
			newIns[i] = fix(in)
		}
		out := op.WithInputs(newIns...)
		if a, ok := out.(*xmas.Apply); ok {
			a.Plan = fix(a.Plan)
		}
		if gb, ok := out.(*xmas.GroupBy); ok {
			gb.Presorted = false
		}
		return out
	}
	return fix(clone)
}

// Ablation is experiment E14: which optimizer stages buy how much, measured
// on the Figure 12 composition.
func Ablation(nCustomers int) Table {
	t := Table{
		Title:  "E14 optimizer ablation (Figure 12 query over the Q1 view)",
		Note:   "paper §6 bullets: object-construction removal, condition combination, semijoin pushdown",
		Header: []string{"variant", "shipped", "mediator_tuples", "ms"},
	}
	query := `
FOR $R IN document(rootv)/CustRec
    $S IN $R/OrderInfo
WHERE $S/orders/value > 90000
RETURN $R`
	variants := []struct {
		name string
		cfg  mix.Config
	}{
		{"full", mix.Config{}},
		{"no-semijoin-push", mix.Config{RewriteOptions: rewrite.Options{NoSemijoinPush: true}}},
		{"no-dead-elim", mix.Config{RewriteOptions: rewrite.Options{NoDeadElim: true}}},
		{"no-sql-pushdown", mix.Config{DisablePushdown: true}},
		{"no-rewrite", mix.Config{DisableRewrite: true, DisablePushdown: true}},
	}
	var baseline int
	for _, v := range variants {
		med := mediatorOver(nCustomers, 3, v.cfg)
		med.ResetStats()
		start := time.Now()
		doc, metrics, err := med.QueryWithMetrics(query)
		must(err)
		m := doc.Materialize()
		must(doc.Err())
		dur := time.Since(start)
		if v.name == "full" {
			baseline = len(m.Children)
		} else if len(m.Children) != baseline {
			panic(fmt.Sprintf("experiment: ablation %s diverged: %d vs %d",
				v.name, len(m.Children), baseline))
		}
		t.Rows = append(t.Rows, []string{
			v.name, i64(med.Stats().TuplesShipped), i64(metrics.Total()), ms(dur),
		})
	}
	return t
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func i64(v int64) string { return fmt.Sprintf("%d", v) }

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
