package engine

import (
	"mix/internal/source"
	"mix/internal/xmas"
)

// scanHint is what compile-time plan analysis knows about one document
// scan; openCursor copies it into the scan's source.ScanOpts.
type scanHint struct {
	// unordered reports the scan's child order cannot be observed in the
	// final answer (xmas.OrderDemand on the mkSrc output variable).
	unordered bool
	// keys are equalities every delivered child must satisfy
	// (xmas.ScanConstraints) — a coordinator's pruning input.
	keys []source.KeyConstraint
}

// analyzeScans runs the order-demand and key-constraint analyses over a
// verified plan, but only when the plan scans a coordinator document
// (source.ShardCounter) — only a document that merges partitions reads
// ScanOpts.Unordered and ScanOpts.Keys. For ordinary catalogs the map stays
// nil and compilation pays nothing for it.
func analyzeScans(plan xmas.Op, cat *source.Catalog) map[*xmas.MkSrc]scanHint {
	var mks []*xmas.MkSrc
	collectMkSrcs(plan, &mks)
	relevant := false
	for _, o := range mks {
		if d, err := cat.Resolve(o.SrcID); err == nil {
			if _, ok := d.(source.ShardCounter); ok {
				relevant = true
				break
			}
		}
	}
	if !relevant {
		return nil
	}
	dem := xmas.OrderDemand(plan)
	consts := xmas.ScanConstraints(plan)
	hints := make(map[*xmas.MkSrc]scanHint, len(mks))
	for _, o := range mks {
		h := scanHint{unordered: !dem[o][o.Out]}
		for _, k := range consts[o] {
			h.keys = append(h.keys, source.KeyConstraint{Path: k.Path, Value: k.Value})
		}
		hints[o] = h
	}
	return hints
}

// collectMkSrcs gathers every document-backed mkSrc, nested plans included.
func collectMkSrcs(op xmas.Op, out *[]*xmas.MkSrc) {
	if op == nil {
		return
	}
	switch o := op.(type) {
	case *xmas.MkSrc:
		if o.In != nil {
			collectMkSrcs(o.In, out)
			return
		}
		*out = append(*out, o)
	case *xmas.GetD:
		collectMkSrcs(o.In, out)
	case *xmas.Select:
		collectMkSrcs(o.In, out)
	case *xmas.Project:
		collectMkSrcs(o.In, out)
	case *xmas.OrderBy:
		collectMkSrcs(o.In, out)
	case *xmas.Join:
		collectMkSrcs(o.L, out)
		collectMkSrcs(o.R, out)
	case *xmas.SemiJoin:
		collectMkSrcs(o.L, out)
		collectMkSrcs(o.R, out)
	case *xmas.CrElt:
		collectMkSrcs(o.In, out)
	case *xmas.Cat:
		collectMkSrcs(o.In, out)
	case *xmas.GroupBy:
		collectMkSrcs(o.In, out)
	case *xmas.Apply:
		collectMkSrcs(o.In, out)
		collectMkSrcs(o.Plan, out)
	case *xmas.TD:
		collectMkSrcs(o.In, out)
	}
}
