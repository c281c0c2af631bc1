package repl_test

import (
	"errors"
	"strings"
	"testing"

	"mix"
	"mix/internal/repl"
	"mix/internal/source"
	"mix/internal/workload"
	"mix/internal/xtree"
)

func session(t *testing.T) *repl.Session {
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
	s, err := repl.New(med, "rootv")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func exec(t *testing.T, s *repl.Session, line string) string {
	t.Helper()
	var b strings.Builder
	if s.Execute(line, &b) {
		t.Fatalf("command %q quit the session", line)
	}
	return b.String()
}

func TestNavigationCommands(t *testing.T) {
	s := session(t)
	if got := exec(t, s, "l"); got != "list\n" {
		t.Fatalf("l at root: %q", got)
	}
	exec(t, s, "d")
	if got := exec(t, s, "l"); got != "CustRec\n" {
		t.Fatalf("after d: %q", got)
	}
	exec(t, s, "r")
	exec(t, s, "d") // customer
	if got := exec(t, s, "l"); got != "customer\n" {
		t.Fatalf("after d d: %q", got)
	}
	exec(t, s, "u")
	if got := exec(t, s, "l"); got != "CustRec\n" {
		t.Fatalf("after u: %q", got)
	}
	if got := exec(t, s, "v"); !strings.Contains(got, "⊥") {
		t.Fatalf("v on non-leaf: %q", got)
	}
	// Down to the id leaf.
	exec(t, s, "d")
	exec(t, s, "d")
	exec(t, s, "d")
	if got := exec(t, s, "v"); got != "XYZ123\n" {
		t.Fatalf("leaf value: %q", got)
	}
	if got := exec(t, s, "d"); !strings.Contains(got, "⊥") {
		t.Fatalf("d on leaf: %q", got)
	}
}

func TestBoundaryMessages(t *testing.T) {
	s := session(t)
	if got := exec(t, s, "u"); !strings.Contains(got, "at root") {
		t.Fatalf("u at root: %q", got)
	}
	if got := exec(t, s, "r"); !strings.Contains(got, "⊥") {
		t.Fatalf("r at root: %q", got)
	}
	if got := exec(t, s, "zzz"); !strings.Contains(got, "unknown command") {
		t.Fatalf("unknown: %q", got)
	}
	if got := exec(t, s, "help"); !strings.Contains(got, "d=down") {
		t.Fatalf("help: %q", got)
	}
}

func TestInPlaceQueryCommand(t *testing.T) {
	s := session(t)
	exec(t, s, "d")
	exec(t, s, "r") // XYZ123 CustRec
	out := exec(t, s, "q FOR $O IN document(root)/OrderInfo WHERE $O/orders/value < 500 RETURN $O")
	if !strings.Contains(out, "new result document") {
		t.Fatalf("q output: %q", out)
	}
	exec(t, s, "d")
	if got := exec(t, s, "l"); got != "OrderInfo\n" {
		t.Fatalf("after q+d: %q", got)
	}
	p := exec(t, s, "p")
	if !strings.Contains(p, "31416") {
		t.Fatalf("p output:\n%s", p)
	}
	if got := exec(t, s, "q"); !strings.Contains(got, "usage") {
		t.Fatalf("bare q: %q", got)
	}
	if got := exec(t, s, "q FOR"); !strings.Contains(got, "error") {
		t.Fatalf("bad q: %q", got)
	}
}

func TestStatsAndPrompt(t *testing.T) {
	s := session(t)
	if got := exec(t, s, "stats"); !strings.Contains(got, "tuples shipped") {
		t.Fatalf("stats: %q", got)
	}
	if p := s.Prompt(); !strings.Contains(p, "list") || !strings.Contains(p, "shipped") {
		t.Fatalf("prompt: %q", p)
	}
}

func TestRunLoop(t *testing.T) {
	s := session(t)
	in := strings.NewReader("d\nl\nquit\n")
	var out strings.Builder
	if err := s.Run(in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CustRec") {
		t.Fatalf("run transcript:\n%s", out.String())
	}
}

func TestRunLoopEOF(t *testing.T) {
	s := session(t)
	var out strings.Builder
	if err := s.Run(strings.NewReader("l\n"), &out); err != nil {
		t.Fatal(err)
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

// TestNavigationReportsSourceFailure: when a source fails mid-scan, the
// step that runs into the failure prints it instead of ⊥.
func TestNavigationReportsSourceFailure(t *testing.T) {
	med := mix.New()
	if err := med.AddXMLSource("&items", "<doc><item>a</item><item>b</item><item>c</item><item>d</item></doc>"); err != nil {
		t.Fatal(err)
	}
	items, err := med.Catalog().Resolve("&items")
	if err != nil {
		t.Fatal(err)
	}
	med.Catalog().AddDoc("&bad", failAfterDoc{Doc: items, n: 2})
	if _, err := med.DefineView("badv", "FOR $I IN document(&bad)/item RETURN <It> $I </It>"); err != nil {
		t.Fatal(err)
	}
	s, err := repl.New(med, "badv")
	if err != nil {
		t.Fatal(err)
	}
	if got := exec(t, s, "d"); got != "" {
		t.Fatalf("d onto the first item: %q", got)
	}
	for i := 0; i < 4; i++ {
		got := exec(t, s, "r")
		if got == "" {
			continue
		}
		if !strings.Contains(got, "source &bad unavailable") || strings.Contains(got, "⊥") {
			t.Fatalf("r into the failure: %q", got)
		}
		return
	}
	t.Fatal("r never reached the failure")
}
