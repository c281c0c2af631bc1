// Package repl implements the interactive QDOM session behind cmd/mixnav —
// a text-mode counterpart of the paper's BBQ front end. It is a separate
// package so the command loop is testable: Execute processes one command
// and writes its output, Run drives a whole reader.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mix"
)

// Session is one interactive navigation session over a mediator view.
type Session struct {
	med  *mix.Mediator
	doc  *mix.Document
	node *mix.Node
}

// New opens the named view and positions the session at its root.
func New(med *mix.Mediator, viewName string) (*Session, error) {
	doc, err := med.Open(viewName)
	if err != nil {
		return nil, err
	}
	return &Session{med: med, doc: doc, node: doc.Root()}, nil
}

// Node returns the current navigation position.
func (s *Session) Node() *mix.Node { return s.node }

// Prompt renders the current position and transfer counter.
func (s *Session) Prompt() string {
	return fmt.Sprintf("[%s %s] (%d shipped)> ",
		s.node.ID(), s.node.Label(), s.med.Stats().TuplesShipped)
}

// Execute runs one command line, writing any output to w. It returns true
// when the session should end.
func (s *Session) Execute(line string, w io.Writer) (quit bool) {
	cmd, rest, _ := strings.Cut(strings.TrimSpace(line), " ")
	switch cmd {
	case "":
	case "d":
		s.move(w, s.node.Down(), "⊥ (leaf)")
	case "r":
		s.move(w, s.node.Right(), "⊥ (no right sibling)")
	case "u":
		s.move(w, s.node.Up(), "⊥ (at root)")
	case "l":
		fmt.Fprintln(w, s.node.Label())
	case "v":
		if v, ok := s.node.Value(); ok {
			fmt.Fprintln(w, v)
		} else {
			fmt.Fprintln(w, "⊥ (not a leaf)")
		}
	case "id":
		fmt.Fprintln(w, s.node.ID())
	case "p":
		fmt.Fprint(w, s.node.Materialize().Pretty())
	case "q":
		if strings.TrimSpace(rest) == "" {
			fmt.Fprintln(w, "usage: q FOR $X IN document(root)/... RETURN ...")
			return false
		}
		doc, err := s.med.QueryFrom(s.node, rest)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return false
		}
		s.doc = doc
		s.node = doc.Root()
		fmt.Fprintln(w, "new result document; navigation reset to its root")
	case "stats":
		st := s.med.Stats()
		fmt.Fprintf(w, "%d queries to sources, %d tuples shipped\n",
			st.QueriesReceived, st.TuplesShipped)
	case "help":
		fmt.Fprintln(w, "d=down r=right u=up l=label v=value id=object-id p=print-subtree q <query> stats quit")
	case "quit", "exit":
		return true
	default:
		fmt.Fprintf(w, "unknown command %q (try help)\n", cmd)
	}
	return false
}

// move steps to next, or reports why there is no node there: ⊥, or the
// source failure that cut the document short.
func (s *Session) move(w io.Writer, next *mix.Node, blocked string) {
	if next != nil {
		s.node = next
	} else if err := s.node.Doc().Err(); err != nil {
		fmt.Fprintln(w, "error:", err)
	} else {
		fmt.Fprintln(w, blocked)
	}
}

// Run drives the session from r until quit or EOF, echoing prompts to w.
func (s *Session) Run(r io.Reader, w io.Writer) error {
	in := bufio.NewScanner(r)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(w, s.Prompt())
		if !in.Scan() {
			fmt.Fprintln(w)
			return in.Err()
		}
		if s.Execute(in.Text(), w) {
			return nil
		}
	}
}
