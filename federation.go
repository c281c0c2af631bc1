package mix

import (
	"fmt"

	"mix/internal/qdom"
	"mix/internal/source"
	"mix/internal/xtree"
)

// AddMediatorSource registers the virtual document doc — typically the
// result of a query against another MIX mediator — as a navigable source of
// this mediator under id. This realizes the paper's federation remark ("a
// MIX mediator can be such a source to another MIX mediator"): the upper
// mediator's navigations pull the lower mediator's result lazily, child by
// child, so lower-level sources are still contacted on demand only.
//
// Simplification vs. the paper: within one top-level child, the subtree is
// materialized when first visited instead of being navigated node by node;
// across children laziness is preserved, which is where the demand-driven
// savings live (children correspond to source tuples).
func (m *Mediator) AddMediatorSource(id string, doc *Document) {
	m.cat.AddDoc(id, &qdomSourceDoc{id: id, doc: doc})
}

type qdomSourceDoc struct {
	id  string
	doc *qdom.Document
}

func (d *qdomSourceDoc) RootID() string { return d.id }

// Open implements source.Doc. Scanning a nested federated document forces
// the inner mediator's own query (and its source access), so a parallel
// execution moves that onto a producer goroutine with a bounded read-ahead.
// Batching does not apply to an in-process QDOM scan.
func (d *qdomSourceDoc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	open := func() (source.ElemCursor, error) { return &qdomCursor{doc: d.doc}, nil }
	if opts.Parallel {
		return source.OpenAhead(open, 8), nil
	}
	return open()
}

type qdomCursor struct {
	doc *qdom.Document
	i   int
}

func (c *qdomCursor) Next() (*xtree.Node, bool, error) {
	child := c.doc.Root().Child(c.i)
	if child == nil {
		if err := c.doc.Err(); err != nil {
			return nil, false, fmt.Errorf("mix: mediator source: %w", err)
		}
		return nil, false, nil
	}
	c.i++
	return child.Materialize(), true, nil
}

func (c *qdomCursor) Close() {}
