package rewrite

import "mix/internal/xmas"

// labelsOfVar statically computes the possible labels of the elements bound
// to v within the subtree rooted at op. known=false means the analysis gave
// up (e.g. the variable comes from a source whose shape is unknown), in
// which case the cat-unfolding rule must stay conservative.
func labelsOfVar(op xmas.Op, v xmas.Var) (labels []string, known bool) {
	def := findDef(op, v)
	if def == nil {
		return nil, false
	}
	switch d := def.(type) {
	case *xmas.CrElt:
		return []string{d.Label}, true
	case *xmas.GetD:
		last := d.Path[len(d.Path)-1]
		if last == xmas.Wildcard {
			return nil, false
		}
		return []string{last}, true
	case *xmas.Cat:
		l1, ok1 := labelsOfSpec(op, d.X)
		l2, ok2 := labelsOfSpec(op, d.Y)
		if !ok1 || !ok2 {
			return nil, false
		}
		return append(l1, l2...), true
	case *xmas.Apply:
		// The apply output is the list collected by the nested plan's tD.
		// The collect variable is usually bound below the group-by (the
		// partition carries it), so search the apply's input first, then
		// the nested body itself.
		if td, ok := d.Plan.(*xmas.TD); ok {
			if labels, ok := labelsOfVar(d.In, td.V); ok {
				return labels, true
			}
			return labelsOfVar(td.In, td.V)
		}
		return nil, false
	case *xmas.NestedSrc:
		// Unknown here; the outer plan knows, but the rules that need
		// labels run before unnesting only on outer structure.
		return nil, false
	}
	return nil, false
}

// labelsOfSpec computes possible labels of the elements contributed by a
// cat/crElt child spec.
func labelsOfSpec(op xmas.Op, spec xmas.ChildSpec) ([]string, bool) {
	return labelsOfVar(op, spec.V)
}

// findDef locates the operator that defines v in the subtree (including
// nested plans). NestedSrc re-exports outer variables rather than defining
// them, so a real definition elsewhere in the subtree wins over one.
func findDef(op xmas.Op, v xmas.Var) xmas.Op {
	var real, nested xmas.Op
	var buf []xmas.Var
	xmas.Walk(op, func(x xmas.Op) bool {
		if real != nil {
			return false
		}
		buf = xmas.AppendDefinedVars(buf[:0], x)
		for _, d := range buf {
			if d == v {
				if _, isNested := x.(*xmas.NestedSrc); isNested {
					if nested == nil {
						nested = x
					}
				} else {
					real = x
					return false
				}
			}
		}
		return true
	})
	if real != nil {
		return real
	}
	return nested
}

// labelCanMatch reports whether step could match any of labels.
func labelCanMatch(step string, labels []string, known bool) bool {
	if !known || step == xmas.Wildcard {
		return true
	}
	for _, l := range labels {
		if l == step {
			return true
		}
	}
	return false
}
