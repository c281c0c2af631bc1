package wire_test

import (
	"errors"
	"net"
	"strings"
	"testing"

	"mix"
	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xtree"
)

// startPair wires a client to a fresh server session over net.Pipe.
func startPair(t *testing.T) (*wire.Client, *mix.Mediator) {
	t.Helper()
	med := mix.New()
	med.AddRelationalSource(workload.PaperDB())
	if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	srv := wire.NewServer(med)
	go func() {
		defer server.Close()
		_ = srv.ServeConn(server)
	}()
	c := wire.NewClient(client)
	t.Cleanup(func() {
		c.Close()
		testleak.NoHandles(t, "server node handles", srv.LiveHandles)
	})
	return c, med
}

func TestPing(t *testing.T) {
	c, _ := startPair(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteSession replays Example 2.1 across the wire: navigation steps
// each evaluate one QDOM step at the mediator, and in-place queries
// decontextualize there.
func TestRemoteSession(t *testing.T) {
	c, med := startPair(t)

	p0, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	if p0.Label() != "list" {
		t.Fatalf("root label = %q", p0.Label())
	}
	if shipped, _, _ := c.Stats(); shipped != 0 {
		t.Fatalf("open shipped %d tuples", shipped)
	}

	p1, err := p0.Down()
	if err != nil || p1.Label() != "CustRec" {
		t.Fatalf("d(p0): %v %v", p1, err)
	}
	shipped1, _, _ := c.Stats()
	if shipped1 == 0 {
		t.Fatal("first remote navigation shipped nothing")
	}

	p2, err := p1.Right()
	if err != nil || p2 == nil {
		t.Fatalf("r(p1): %v %v", p2, err)
	}
	end, err := p2.Right()
	if err != nil {
		t.Fatal(err)
	}
	if end != nil {
		t.Fatal("r past last CustRec must be ⊥")
	}

	// Descend to a leaf and read its value.
	cust, err := p2.Down()
	if err != nil || cust.Label() != "customer" {
		t.Fatalf("d(p2): %v %v", cust, err)
	}
	idElem, err := cust.Down()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := idElem.Down()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := leaf.Value(); !ok || v != "XYZ123" {
		t.Fatalf("fv(leaf) = %q, %v", v, ok)
	}
	if _, ok := cust.Value(); ok {
		t.Fatal("fv on non-leaf must be ⊥")
	}
	up, err := leaf.Up()
	if err != nil || up.Label() != "id" {
		t.Fatalf("up: %v %v", up, err)
	}

	// In-place query from the second CustRec (XYZ123).
	sub, err := p2.QueryFrom(`
FOR $O IN document(root)/OrderInfo
WHERE $O/orders/value < 500
RETURN $O`)
	if err != nil {
		t.Fatal(err)
	}
	oi, err := sub.Down()
	if err != nil || oi == nil || oi.Label() != "OrderInfo" {
		t.Fatalf("in-place result: %v %v", oi, err)
	}
	xml, err := oi.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xml, "<orid>31416</orid>") {
		t.Fatalf("materialized XML:\n%s", xml)
	}

	// Server and local stats agree.
	shipped, queries, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local := med.Stats()
	if shipped != local.TuplesShipped || queries != local.QueriesReceived {
		t.Fatalf("stats mismatch: wire (%d,%d) vs local (%d,%d)",
			shipped, queries, local.TuplesShipped, local.QueriesReceived)
	}
}

func TestRemoteQuery(t *testing.T) {
	c, _ := startPair(t)
	root, err := c.Query(workload.Fig12)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := root.Down()
	if err != nil || rec == nil {
		t.Fatalf("query result: %v %v", rec, err)
	}
	if rec.Label() != "CustRec" {
		t.Fatalf("label = %q", rec.Label())
	}
	next, err := rec.Right()
	if err != nil {
		t.Fatal(err)
	}
	if next != nil {
		t.Fatal("Fig12 over the paper data has exactly one CustRec")
	}
}

// TestRemoteErrors: a request the mediator cannot serve — an unknown view,
// query text that does not parse — comes back as an error Response, and the
// connection goes on serving. The last query text once ran the parser off
// the end of its tokens, a panic that took the serving process down.
func TestRemoteErrors(t *testing.T) {
	c, _ := startPair(t)
	if _, err := c.Open("nosuchview"); err == nil {
		t.Error("open of unknown view must fail")
	}
	p0, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"FOR", "FOR $C IN", "FOR $A IN document("} {
		var srvErr *wire.ServerError
		if _, err := c.Query(bad); !errors.As(err, &srvErr) {
			t.Errorf("query %q = %v, want a *wire.ServerError", bad, err)
		}
		if _, err := p0.QueryFrom(bad); !errors.As(err, &srvErr) {
			t.Errorf("queryFrom %q = %v, want a *wire.ServerError", bad, err)
		}
		// The connection survives errors.
		if err := c.Ping(); err != nil {
			t.Fatalf("connection broken after %q: %v", bad, err)
		}
	}
}

func TestServeTCP(t *testing.T) {
	med := mix.New()
	med.AddRelationalSource(workload.PaperDB())
	if err := med.AliasSource("&root1", "&db1.customer"); err != nil {
		t.Fatal(err)
	}
	if err := med.AliasSource("&root2", "&db1.orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := med.DefineView("rootv", workload.Q1); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = wire.NewServer(med).Serve(l) }()

	// Two concurrent clients with independent sessions.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := wire.Dial(l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			root, err := c.Open("rootv")
			if err != nil {
				done <- err
				return
			}
			n, err := root.Down()
			if err == nil && (n == nil || n.Label() != "CustRec") {
				err = errUnexpected
			}
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errUnexpected = &net.AddrError{Err: "unexpected navigation result"}

// TestRemoteFederation: a LOCAL mediator integrates a REMOTE mediator's
// virtual view as one of its sources, over the wire. Queries at the upper
// mediator pull through the protocol and, transitively, out of the lower
// mediator's relational source on demand.
func TestRemoteFederation(t *testing.T) {
	c, lower := startPair(t)
	remoteRoot, err := c.Open("rootv")
	if err != nil {
		t.Fatal(err)
	}

	upper := mix.New()
	upper.Catalog().AddDoc("&remote", wire.NewRemoteDoc("&remote", remoteRoot))
	if n := lower.Stats().TuplesShipped; n != 0 {
		t.Fatalf("registration shipped %d tuples at the lower mediator", n)
	}

	doc, err := upper.Query(`
FOR $R IN document(&remote)/CustRec
    $C IN $R/customer
WHERE $C/addr = "NewYork"
RETURN <Hit> $C </Hit>`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Materialize()
	if err := doc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(m.Children) != 1 {
		t.Fatalf("federated hits = %d, want 1:\n%s", len(m.Children), m.Pretty())
	}
	name := m.Children[0].Find("name")
	if name == nil || name.Children[0].Label != "DEFCorp." {
		t.Fatalf("federated result:\n%s", m.Pretty())
	}
	if lower.Stats().TuplesShipped == 0 {
		t.Fatal("the lower mediator's source was never consulted")
	}
}

// TestNilRemoteNodeSafety: ⊥ handling in the client library.
func TestNilRemoteNodeSafety(t *testing.T) {
	var n *wire.RemoteNode
	if n.Label() != "" || n.ID() != "" || !n.IsLeaf() {
		t.Fatal("nil accessors")
	}
	if _, ok := n.Value(); ok {
		t.Fatal("nil value")
	}
	if _, err := n.Down(); err == nil {
		t.Fatal("navigation from ⊥ must error")
	}
	if _, err := n.QueryFrom("FOR $X IN document(root)/a RETURN $X"); err == nil {
		t.Fatal("query from ⊥ must error")
	}
	if _, err := n.Materialize(); err == nil {
		t.Fatal("materialize of ⊥ must error")
	}
}

// failAfterDoc serves the first n children of a document, then fails the
// scan: a source that dies mid-scan.
type failAfterDoc struct {
	source.Doc
	n int
}

func (d failAfterDoc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	cur, err := d.Doc.Open(opts)
	if err != nil {
		return nil, err
	}
	return &failAfterCursor{ElemCursor: cur, left: d.n}, nil
}

type failAfterCursor struct {
	source.ElemCursor
	left int
}

func (c *failAfterCursor) Next() (*xtree.Node, bool, error) {
	if c.left == 0 {
		return nil, false, &source.SourceUnavailableError{Source: "&bad", Err: errors.New("link down")}
	}
	c.left--
	return c.ElemCursor.Next()
}

// TestSourceFailureCrossesTheWire: a view whose source fails mid-scan
// reaches a remote client as that failure, never as a shorter child list
// ending in ⊥ — on a batched walk, a single-step walk, and a RemoteDoc
// scan, which surfaces it as *source.SourceUnavailableError.
func TestSourceFailureCrossesTheWire(t *testing.T) {
	med := mix.New()
	if err := med.AddXMLSource("&flat", flatXML(20)); err != nil {
		t.Fatal(err)
	}
	flat, err := med.Catalog().Resolve("&flat")
	if err != nil {
		t.Fatal(err)
	}
	med.Catalog().AddDoc("&bad", failAfterDoc{Doc: flat, n: 5})
	if _, err := med.DefineView("badv", "FOR $I IN document(&bad)/item RETURN <It> $I </It>"); err != nil {
		t.Fatal(err)
	}

	// In process: the child list is cut short and the document says why.
	doc, err := med.Open("badv")
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for n := doc.Root().Down(); n != nil; n = n.Right() {
		local++
	}
	if doc.Err() == nil || !strings.Contains(doc.Err().Error(), "source &bad unavailable") {
		t.Fatalf("in-process walk of %d children ended with Err() = %v", local, doc.Err())
	}

	for _, batch := range []int{0, -1} {
		c := dialFlat(t, med, nil, wire.ClientConfig{BatchSize: batch})
		root, err := c.Open("badv")
		if err != nil {
			t.Fatal(err)
		}
		n, err := root.Down()
		seen := 0
		for err == nil && n != nil {
			seen++
			var next *wire.RemoteNode
			next, err = n.Right()
			_ = n.Release()
			n = next
		}
		if err == nil || !strings.Contains(err.Error(), "source &bad unavailable") {
			t.Fatalf("BatchSize %d: remote walk of %d children ended with err = %v", batch, seen, err)
		}
		if seen != local {
			t.Fatalf("BatchSize %d: remote walk saw %d children before the failure, in process %d", batch, seen, local)
		}
		_ = root.Release()
	}

	c := dialFlat(t, med, nil, wire.ClientConfig{})
	root, err := c.Open("badv")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := wire.NewRemoteDoc("&remote", root).Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for {
		_, ok, err := cur.Next()
		var unavailable *source.SourceUnavailableError
		if errors.As(err, &unavailable) {
			break
		}
		if err != nil || !ok {
			t.Fatalf("remote scan ended after %d children with ok = %v, err = %v", scanned, ok, err)
		}
		scanned++
	}
	cur.Close()
	_ = root.Release()
	if scanned != local {
		t.Fatalf("remote scan saw %d children before the failure, in process %d", scanned, local)
	}
}
