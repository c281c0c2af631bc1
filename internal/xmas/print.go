package xmas

import (
	"fmt"
	"strings"
)

// Format renders a plan in the indented style of the paper's figures:
// each operator on its own line, inputs indented below it, nested (apply)
// plans introduced with "p:".
//
//	tD($V, rootv)
//	  crElt(custRec, f($C), $W -> $V)
//	    cat(list($C), $Z -> $W)
//	      apply(p, $X -> $Z)
//	        p: tD($P)
//	          ...
//	        gBy([$C] -> $X)
//	          ...
func Format(op Op) string {
	var b strings.Builder
	writeOp(&b, op, 0)
	return strings.TrimRight(b.String(), "\n")
}

func writeOp(b *strings.Builder, op Op, depth int) {
	pad := strings.Repeat("  ", depth)
	b.WriteString(pad)
	b.WriteString(Describe(op))
	b.WriteByte('\n')
	if a, ok := op.(*Apply); ok {
		b.WriteString(strings.Repeat("  ", depth+1))
		b.WriteString("p:\n")
		writeOp(b, a.Plan, depth+2)
	}
	ins, n := InputsOf(op)
	for _, in := range ins[:n] {
		writeOp(b, in, depth+1)
	}
}

// Describe renders a single operator without its inputs, in the paper's
// parameter notation.
func Describe(op Op) string {
	switch o := op.(type) {
	case *MkSrc:
		return fmt.Sprintf("mkSrc(%s, %s)", o.SrcID, o.Out)
	case *GetD:
		return fmt.Sprintf("getD(%s.%s -> %s)", o.From, o.Path, o.Out)
	case *Select:
		return fmt.Sprintf("select(%s)", o.Cond)
	case *Project:
		return fmt.Sprintf("project(%s)", joinVars(o.Vars))
	case *Join:
		if o.Cond == nil {
			return "join(×)"
		}
		return fmt.Sprintf("join(%s)", *o.Cond)
	case *SemiJoin:
		name := "Rsemijoin"
		if o.Keep == KeepRight {
			name = "Lsemijoin"
		}
		if o.Cond == nil {
			return name + "(×)"
		}
		return fmt.Sprintf("%s(%s)", name, *o.Cond)
	case *CrElt:
		return fmt.Sprintf("crElt(%s, %s(%s), %s -> %s)",
			o.Label, o.SkolemFn, joinVars(o.GroupVars), o.Children, o.Out)
	case *Cat:
		return fmt.Sprintf("cat(%s, %s -> %s)", o.X, o.Y, o.Out)
	case *TD:
		if o.RootID != "" {
			return fmt.Sprintf("tD(%s, %s)", o.V, o.RootID)
		}
		return fmt.Sprintf("tD(%s)", o.V)
	case *GroupBy:
		tag := ""
		if o.Presorted {
			tag = " presorted"
		}
		return fmt.Sprintf("gBy([%s] -> %s%s)", joinVars(o.Keys), o.Out, tag)
	case *Apply:
		return fmt.Sprintf("apply(p, %s -> %s)", o.InpVar, o.Out)
	case *NestedSrc:
		return fmt.Sprintf("nSrc(%s)", o.V)
	case *RelQuery:
		return fmt.Sprintf("rQ(%s, %q, %s)", o.Server, o.SQL, formatMaps(o.Maps))
	case *OrderBy:
		return fmt.Sprintf("orderBy(%s)", joinVars(o.Vars))
	case *Empty:
		return fmt.Sprintf("empty(%s)", joinVars(o.Vars))
	}
	return op.Name()
}

func joinVars(vs []Var) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return strings.Join(parts, ", ")
}

func formatMaps(ms []VarMap) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		cols := make([]string, len(m.Cols))
		for j, c := range m.Cols {
			cols[j] = fmt.Sprintf("%d:%s", c.Pos+1, c.Label)
		}
		parts[i] = fmt.Sprintf("%s=%s{%s}", m.V, m.ElemLabel, strings.Join(cols, ","))
	}
	return "{" + strings.Join(parts, "; ") + "}"
}
