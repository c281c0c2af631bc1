package cost

import (
	"fmt"
	"strings"

	"mix/internal/xmas"
)

// Explain renders a plan in xmas.Format's indented notation with the
// estimator's per-operator predictions appended to each line:
//
//	tD($V, rootv)                          [rows≈12 shipped≈40 trips≈2]
//	  join($T.id = $O.cid)                 [rows≈12 shipped≈40 trips≈2]
//	    rQ(db1, "SELECT ...", {...})       [rows≈10 shipped≈10 trips≈1]
//	    rQ(db2, "SELECT ...", {...})       [rows≈30 shipped≈30 trips≈1]
//
// Each operator's shipped/trips figures are cumulative over its subtree —
// the cost of evaluating that operator to exhaustion — so the root line is
// the whole plan's predicted bill. A trailing "total cost" line folds the
// root estimate through Estimate.Cost.
func Explain(op xmas.Op, est *Estimator) string {
	var b strings.Builder
	writeCosted(&b, op, 0, est)
	root := est.Plan(op)
	fmt.Fprintf(&b, "total cost ≈ %s (shipped + %d×trips)", num(root.Cost()), TripWeight)
	return b.String()
}

func writeCosted(b *strings.Builder, op xmas.Op, depth int, est *Estimator) {
	pad := strings.Repeat("  ", depth)
	line := pad + xmas.Describe(op)
	e := est.Plan(op)
	if w := 44 - len(line); w > 0 {
		line += strings.Repeat(" ", w)
	} else {
		line += " "
	}
	fmt.Fprintf(b, "%s [rows≈%s shipped≈%s trips≈%s]\n", line, num(e.Rows), num(e.Shipped), num(e.Trips))
	if a, ok := op.(*xmas.Apply); ok {
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString("p:\n")
		writeCosted(b, a.Plan, depth+2, est)
	}
	ins, n := xmas.InputsOf(op)
	for _, in := range ins[:n] {
		writeCosted(b, in, depth+1, est)
	}
}

// num prints estimates compactly: integers without a fraction, everything
// else with one decimal.
func num(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.1f", f)
}
