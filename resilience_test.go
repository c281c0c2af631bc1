package mix_test

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"mix"
	"mix/internal/faultnet"
	"mix/internal/source"
	"mix/internal/wire"
	"mix/internal/workload"
	"mix/internal/xtree"
)

// flakyDoc wraps a catalog document and injects a SourceUnavailableError
// after failAfter elements — a source that dies mid-scan.
type flakyDoc struct {
	id        string
	inner     source.Doc
	failAfter int
}

func (d *flakyDoc) RootID() string { return d.inner.RootID() }

func (d *flakyDoc) Open(opts source.ScanOpts) (source.ElemCursor, error) {
	cur, err := d.inner.Open(opts)
	if err != nil {
		return nil, err
	}
	return &flakyCur{doc: d, inner: cur}, nil
}

type flakyCur struct {
	doc   *flakyDoc
	inner source.ElemCursor
	n     int
}

func (c *flakyCur) Next() (*xtree.Node, bool, error) {
	if c.n >= c.doc.failAfter {
		return nil, false, &source.SourceUnavailableError{
			Source: c.doc.id,
			Err:    errors.New("injected mid-scan failure"),
		}
	}
	c.n++
	return c.inner.Next()
}

func (c *flakyCur) Close() { c.inner.Close() }

// wrapFlaky re-registers the resolved doc behind a failure injector under
// the id "&flaky".
func wrapFlaky(t *testing.T, med *mix.Mediator, srcID string, failAfter int) {
	t.Helper()
	doc, err := med.Catalog().Resolve(srcID)
	if err != nil {
		t.Fatal(err)
	}
	med.Catalog().AddDoc("&flaky", &flakyDoc{id: "&flaky", inner: doc, failAfter: failAfter})
}

// TestSourceFailureMidScan drives the same mid-scan failure through an XML
// source, a relational wrapper source, and a remote (federated) source. In
// the default fail-fast mode the query surfaces a typed
// SourceUnavailableError; under Config.PartialResults the query completes
// with the elements scanned so far plus a SourceUnavailable annotation.
func TestSourceFailureMidScan(t *testing.T) {
	cases := []struct {
		name     string
		survived int // elements delivered before the failure (-1: unknown)
		build    func(t *testing.T, cfg mix.Config) (*mix.Mediator, string)
	}{
		{
			name:     "xml",
			survived: 2,
			build: func(t *testing.T, cfg mix.Config) (*mix.Mediator, string) {
				med := mix.NewWith(cfg)
				if err := med.AddXMLSource("&xdoc",
					"<doc><item>a</item><item>b</item><item>c</item><item>d</item></doc>"); err != nil {
					t.Fatal(err)
				}
				wrapFlaky(t, med, "&xdoc", 2)
				return med, "FOR $I IN document(&flaky)/item RETURN $I"
			},
		},
		{
			name:     "relational",
			survived: 1,
			build: func(t *testing.T, cfg mix.Config) (*mix.Mediator, string) {
				med := mix.NewWith(cfg)
				med.AddRelationalSource(workload.PaperDB())
				wrapFlaky(t, med, "&db1.customer", 1)
				return med, "FOR $C IN document(&flaky)/customer RETURN $C"
			},
		},
		{
			name:     "remote",
			survived: -1, // depends on where the byte budget runs out
			build: func(t *testing.T, cfg mix.Config) (*mix.Mediator, string) {
				lower := mix.New()
				lower.AddRelationalSource(workload.ScaleDB("db1", 25, 3, 42))
				for alias, target := range map[string]string{
					"&root1": "&db1.customer", "&root2": "&db1.orders",
				} {
					if err := lower.AliasSource(alias, target); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := lower.DefineView("rootv", workload.Q1); err != nil {
					t.Fatal(err)
				}
				server, client := net.Pipe()
				srv := wire.NewServer(lower)
				go func() {
					defer server.Close()
					_ = srv.ServeConn(server)
				}()
				// The connection dies mid-scan after ~2000 bytes and there
				// is no redial: a genuine federation failure.
				conn := faultnet.Wrap(client, faultnet.Config{CloseAfterBytes: 2000})
				c := wire.NewClientConfig(conn, wire.ClientConfig{
					OpTimeout:        2 * time.Second,
					MaxRetries:       -1,
					BreakerThreshold: -1,
				})
				t.Cleanup(func() { _ = c.Close() })
				root, err := c.Open("rootv")
				if err != nil {
					t.Fatal(err)
				}
				med := mix.NewWith(cfg)
				med.Catalog().AddDoc("&flaky", wire.NewRemoteDoc("&flaky", root))
				return med, "FOR $R IN document(&flaky)/CustRec RETURN $R"
			},
		},
	}

	countReal := func(root *xtree.Node) (real, annotations int, note string) {
		for _, kid := range root.Children {
			if kid.Label == "SourceUnavailable" {
				annotations++
				if len(kid.Children) == 1 {
					note = kid.Children[0].Label
				}
			} else {
				real++
			}
		}
		return
	}

	for _, tc := range cases {
		t.Run(tc.name+"/fail-fast", func(t *testing.T) {
			med, q := tc.build(t, mix.Config{})
			doc, err := med.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			m := doc.Materialize()
			var sue *source.SourceUnavailableError
			if err := doc.Err(); !errors.As(err, &sue) {
				t.Fatalf("want SourceUnavailableError, got %v", err)
			}
			if sue.Source != "&flaky" {
				t.Fatalf("error names source %q, want &flaky", sue.Source)
			}
			if _, ann, _ := countReal(m); ann != 0 {
				t.Fatal("fail-fast mode must not annotate")
			}
		})
		t.Run(tc.name+"/partial", func(t *testing.T) {
			med, q := tc.build(t, mix.Config{PartialResults: true})
			doc, err := med.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			m := doc.Materialize()
			if err := doc.Err(); err != nil {
				t.Fatalf("partial mode must not fail the query: %v", err)
			}
			real, ann, note := countReal(m)
			if ann != 1 {
				t.Fatalf("want exactly one SourceUnavailable annotation, got %d", ann)
			}
			if !strings.Contains(note, "&flaky") || !strings.Contains(note, "unavailable") {
				t.Fatalf("annotation note %q must identify the lost source", note)
			}
			if tc.survived >= 0 && real != tc.survived {
				t.Fatalf("partial result has %d elements, want %d", real, tc.survived)
			}
			if tc.name == "remote" && real >= 25 {
				t.Fatalf("remote scan of %d children cannot have completed", real)
			}
		})
	}
}

// TestHealthSurfacesBreaker: the mediator-level health map exposes the wire
// client's circuit-breaker state per remote source.
func TestHealthSurfacesBreaker(t *testing.T) {
	lower := mix.New()
	if err := lower.AddXMLSource("&x", "<doc><a>1</a></doc>"); err != nil {
		t.Fatal(err)
	}
	if _, err := lower.DefineView("v", "FOR $A IN document(&x)/a RETURN $A"); err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go func() {
		defer server.Close()
		_ = wire.NewServer(lower).ServeConn(server)
	}()
	c := wire.NewClientConfig(client, wire.ClientConfig{
		OpTimeout:        time.Second,
		MaxRetries:       -1,
		BreakerThreshold: 2,
		Redial:           func() (io.ReadWriteCloser, error) { return nil, errors.New("down") },
	})
	defer c.Close()
	root, err := c.Open("v")
	if err != nil {
		t.Fatal(err)
	}

	med := mix.New()
	med.Catalog().AddDoc("&remote", wire.NewRemoteDoc("&remote", root))

	h, ok := med.Health()["&remote"]
	if !ok {
		t.Fatal("health map missing &remote")
	}
	if h.State != "closed" {
		t.Fatalf("initial breaker state %q, want closed", h.State)
	}
	_ = client.Close() // sever the link; the failing redial keeps it down
	for i := 0; i < 2; i++ {
		_ = c.Ping()
	}
	h = med.Health()["&remote"]
	if h.State != "open" || h.ConsecutiveFailures != 2 {
		t.Fatalf("breaker after failures: %+v", h)
	}
	if h.LastError == "" {
		t.Fatal("health must carry the last error")
	}
}
