// Package sqlparse parses the SQL subset the MIX mediator ships to its
// relational sources (paper Figure 22):
//
//	SELECT [DISTINCT] colref, ... FROM rel [alias], ...
//	[WHERE pred AND pred ...] [ORDER BY colref, ...]
//
// where a pred compares column references and literals with =, !=, <, <=,
// >, >=. That is exactly the fragment the composition optimizer generates —
// conjunctive select-project-join queries with an order for the presorted
// group-by — and the fragment the sqlexec substrate executes.
package sqlparse

import (
	"fmt"
	"strings"

	"mix/internal/xtree"
)

// ColRef is a possibly-qualified column reference.
type ColRef struct {
	Qualifier string // table alias (or relation name); may be empty
	Column    string
}

func (c ColRef) String() string {
	if c.Qualifier != "" {
		return c.Qualifier + "." + c.Column
	}
	return c.Column
}

// TableRef is one FROM-list entry.
type TableRef struct {
	Relation string
	Alias    string // equals Relation when no alias was written
}

// Expr is a predicate operand: a column reference or a literal.
type Expr struct {
	IsLit bool
	Lit   string // literal text (unquoted)
	Col   ColRef
}

func (e Expr) String() string {
	if !e.IsLit {
		return e.Col.String()
	}
	if isNumber(e.Lit) {
		return e.Lit
	}
	return "'" + strings.ReplaceAll(e.Lit, "'", "''") + "'"
}

// Pred is one WHERE conjunct.
type Pred struct {
	Left  Expr
	Op    xtree.CmpOp
	Right Expr
}

func (p Pred) String() string {
	op := p.Op.String()
	if p.Op == xtree.OpNE {
		op = "<>"
	}
	return p.Left.String() + " " + op + " " + p.Right.String()
}

// Select is a parsed query.
type Select struct {
	Distinct bool
	Cols     []ColRef
	From     []TableRef
	Where    []Pred
	OrderBy  []ColRef
}

// String renders the query back to SQL; Parse(sel.String()) is the identity
// up to whitespace (property-tested).
func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.String())
	}
	b.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Relation)
		if t.Alias != t.Relation {
			b.WriteString(" " + t.Alias)
		}
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, c := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// Error reports a malformed SQL text.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sqlparse: offset %d: %s", e.Pos, e.Msg) }

// Parse parses a query in the supported subset.
func Parse(src string) (*Select, error) {
	p := &parser{src: src}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.skipWS()
	if p.pos < len(p.src) && p.peekByte() == ';' {
		p.pos++
		p.skipWS()
	}
	if p.pos < len(p.src) {
		return nil, p.errorf("trailing input %q", p.src[p.pos:])
	}
	return sel, nil
}

// MustParse is Parse that panics on error; for tests.
func MustParse(src string) *Select {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	src string
	pos int
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peekByte() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// isNumber reports whether parseExpr reads s back as a number: a digit or
// '-' first, then digits and dots. String prints any other literal quoted.
func isNumber(s string) bool {
	if s == "" || s[0] != '-' && (s[0] < '0' || s[0] > '9') {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; c != '.' && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// word reads an identifier/keyword; returns "" at a non-identifier.
func (p *parser) word() string {
	p.skipWS()
	start := p.pos
	for p.pos < len(p.src) && isIdentByte(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos]
}

// peekWord reads a word without consuming it.
func (p *parser) peekWord() string {
	save := p.pos
	w := p.word()
	p.pos = save
	return w
}

func (p *parser) expectKeyword(kw string) error {
	save := p.pos
	w := p.word()
	if !strings.EqualFold(w, kw) {
		p.pos = save
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	save := p.pos
	w := p.word()
	if strings.EqualFold(w, kw) {
		return true
	}
	p.pos = save
	return false
}

func (p *parser) acceptByte(c byte) bool {
	p.skipWS()
	if p.peekByte() == c {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseColRef() (ColRef, error) {
	w := p.word()
	if w == "" {
		return ColRef{}, p.errorf("expected column reference")
	}
	if p.peekByte() == '.' {
		p.pos++
		col := p.word()
		if col == "" {
			return ColRef{}, p.errorf("expected column name after %s.", w)
		}
		return ColRef{Qualifier: w, Column: col}, nil
	}
	return ColRef{Column: w}, nil
}

func (p *parser) parseExpr() (Expr, error) {
	p.skipWS()
	c := p.peekByte()
	switch {
	case c == '\'':
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.src) {
				return Expr{}, p.errorf("unterminated string literal")
			}
			if p.src[p.pos] == '\'' {
				if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\'' { // escaped quote
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return Expr{IsLit: true, Lit: b.String()}, nil
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
	case c >= '0' && c <= '9' || c == '-':
		start := p.pos
		if c == '-' {
			p.pos++
		}
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		return Expr{IsLit: true, Lit: p.src[start:p.pos]}, nil
	default:
		col, err := p.parseColRef()
		if err != nil {
			return Expr{}, err
		}
		return Expr{Col: col}, nil
	}
}

func (p *parser) parseOp() (xtree.CmpOp, error) {
	p.skipWS()
	rest := p.src[p.pos:]
	for _, cand := range []struct {
		text string
		op   xtree.CmpOp
	}{
		{"<=", xtree.OpLE}, {">=", xtree.OpGE}, {"<>", xtree.OpNE}, {"!=", xtree.OpNE},
		{"=", xtree.OpEQ}, {"<", xtree.OpLT}, {">", xtree.OpGT},
	} {
		if strings.HasPrefix(rest, cand.text) {
			p.pos += len(cand.text)
			return cand.op, nil
		}
	}
	return 0, p.errorf("expected comparison operator")
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	}
	for {
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		sel.Cols = append(sel.Cols, col)
		if !p.acceptByte(',') {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		rel := p.word()
		if rel == "" {
			return nil, p.errorf("expected relation name")
		}
		tr := TableRef{Relation: rel, Alias: rel}
		next := p.peekWord()
		if next != "" && !isKeyword(next) {
			tr.Alias = p.word()
		}
		sel.From = append(sel.From, tr)
		if !p.acceptByte(',') {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		for {
			left, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			op, err := p.parseOp()
			if err != nil {
				return nil, err
			}
			right, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, Pred{Left: left, Op: op, Right: right})
			if !p.acceptKeyword("AND") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			sel.OrderBy = append(sel.OrderBy, col)
			if !p.acceptByte(',') {
				break
			}
		}
	}
	return sel, nil
}

func isKeyword(w string) bool {
	switch strings.ToUpper(w) {
	case "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "ORDER", "BY":
		return true
	}
	return false
}
