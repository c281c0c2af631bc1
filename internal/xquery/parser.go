package xquery

import (
	"fmt"
	"strings"

	"mix/internal/xtree"
)

// Parse parses a query in the Figure 4 grammar. Keywords are matched
// case-insensitively, as the paper's examples mix "FOR"/"IN"/"in".
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, p.errorf("unexpected %s after query", p.cur())
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and fixtures.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks    []token
	pos     int
	predSeq int // fresh-variable counter for desugared path predicates
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes the current token; the trailing tokEOF is never consumed,
// so cur stays in range however often a production asks for more input.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokenKind) bool { return p.cur().kind == kind }

func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if !p.at(kind) {
		return token{}, p.errorf("expected %s, found %s", tokenNames[kind], p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errorf("expected %s, found %s", strings.ToUpper(kw), p.cur())
	}
	p.next()
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

// parseQuery parses ForClause WhereClause? OrderByClause? ReturnClause.
// Path predicates in FOR bindings desugar into extra bindings and WHERE
// conjuncts here (see parseForBinding), so everything below the parser sees
// plain Figure 4 queries.
func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectKeyword("FOR"); err != nil {
		return nil, err
	}
	var desugared []Condition
	for {
		fbs, conds, err := p.parseForBinding()
		if err != nil {
			return nil, err
		}
		q.For = append(q.For, fbs...)
		desugared = append(desugared, conds...)
		// Bindings are juxtaposed in the paper's grammar; accept an
		// optional comma between them too.
		if p.at(tokComma) {
			p.next()
			continue
		}
		if p.at(tokVar) {
			continue
		}
		break
	}
	q.Where = append(q.Where, desugared...)
	if p.atKeyword("WHERE") {
		p.next()
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cond)
			if p.atKeyword("AND") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			v, err := p.expect(tokVar)
			if err != nil {
				return nil, err
			}
			q.OrderBy = append(q.OrderBy, v.text)
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("RETURN"); err != nil {
		return nil, err
	}
	el, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	q.Return = el
	return q, nil
}

// parseForBinding parses `$v IN PathExpression`, where path steps may carry
// predicates — `$v IN $R/OrderInfo[orders/value > 100]` — an extension over
// Figure 4 (the paper excludes path predicates; we desugar them). A
// predicate after step s splits the binding at s: a fresh variable binds the
// prefix, the predicate becomes a WHERE conjunct on it, and parsing
// continues from the fresh variable. The returned slice holds the chain in
// order; the conditions are the desugared predicates.
func (p *parser) parseForBinding() ([]ForBinding, []Condition, error) {
	v, err := p.expect(tokVar)
	if err != nil {
		return nil, nil, err
	}
	if err := p.expectKeyword("IN"); err != nil {
		return nil, nil, err
	}
	fb := ForBinding{Var: v.text}
	switch {
	case p.atKeyword("document") || p.atKeyword("source"):
		p.next()
		if _, err := p.expect(tokLParen); err != nil {
			return nil, nil, err
		}
		src := p.next()
		switch src.kind {
		case tokOID, tokIdent, tokString:
			fb.Source = src.text
		default:
			return nil, nil, p.errorf("expected source name, found %s", src)
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, nil, err
		}
	case p.at(tokVar):
		fb.FromVar = p.next().text
	default:
		return nil, nil, p.errorf("expected document(...), source(...) or a variable, found %s", p.cur())
	}

	bindings := []ForBinding{fb}
	var conds []Condition
	cur := &bindings[len(bindings)-1]
	for {
		path, err := p.parsePathSteps()
		if err != nil {
			return nil, nil, err
		}
		cur.Path = append(cur.Path, path...)
		if !p.at(tokLBracket) {
			break
		}
		// Predicate: split the binding here under a fresh variable.
		p.next()
		if len(cur.Path) == 0 {
			return nil, nil, p.errorf("path predicate needs a preceding step")
		}
		p.predSeq++
		tmp := fmt.Sprintf("$pred%d", p.predSeq)
		finalVar := cur.Var
		cur.Var = tmp
		cond, err := p.parsePredicateCondition(tmp)
		if err != nil {
			return nil, nil, err
		}
		conds = append(conds, cond)
		if _, err := p.expect(tokRBracket); err != nil {
			return nil, nil, err
		}
		bindings = append(bindings, ForBinding{Var: finalVar, FromVar: tmp})
		cur = &bindings[len(bindings)-1]
	}

	first := bindings[0]
	if first.Source != "" && len(first.Path) == 0 {
		return nil, nil, p.errorf("document(%s) must be followed by a path", first.Source)
	}
	// A trailing predicate leaves an empty final binding ($v IN $tmp with
	// no path): bind the variable to the predicated node itself.
	if last := &bindings[len(bindings)-1]; last.FromVar != "" && len(last.Path) == 0 && len(bindings) > 1 {
		// Rename the temp to the final variable throughout.
		tmp := last.FromVar
		final := last.Var
		bindings = bindings[:len(bindings)-1]
		for i := range bindings {
			if bindings[i].Var == tmp {
				bindings[i].Var = final
			}
		}
		for i := range conds {
			if conds[i].Left.Var == tmp {
				conds[i].Left.Var = final
			}
			if conds[i].Right.Var == tmp {
				conds[i].Right.Var = final
			}
		}
	}
	return bindings, conds, nil
}

// parsePredicateCondition parses the inside of a step predicate: a relative
// path compared to a constant, e.g. orders/value > 100 or value = "x".
func (p *parser) parsePredicateCondition(onVar string) (Condition, error) {
	var rel []string
	for {
		if p.at(tokStar) {
			p.next()
			rel = append(rel, Wildcard)
		} else {
			step, err := p.expect(tokIdent)
			if err != nil {
				return Condition{}, err
			}
			rel = append(rel, step.text)
		}
		if p.at(tokSlash) {
			p.next()
			continue
		}
		break
	}
	opTok := p.next()
	var op xtree.CmpOp
	switch opTok.kind {
	case tokEQ:
		op = xtree.OpEQ
	case tokNE:
		op = xtree.OpNE
	case tokLT:
		op = xtree.OpLT
	case tokLE:
		op = xtree.OpLE
	case tokGT:
		op = xtree.OpGT
	case tokGE:
		op = xtree.OpGE
	default:
		return Condition{}, p.errorf("expected comparison operator in predicate, found %s", opTok)
	}
	rhs := p.next()
	var c Operand
	switch rhs.kind {
	case tokString, tokNumber, tokOID:
		c = Operand{IsConst: true, Const: rhs.text}
	default:
		return Condition{}, p.errorf("predicate right-hand side must be a constant, found %s", rhs)
	}
	return Condition{
		Left:  Operand{Var: onVar, Path: rel},
		Op:    op,
		Right: c,
	}, nil
}

// parsePathSteps parses ('/' step)* where a step is a label or the '*'
// wildcard, and stops before a trailing /data(). It returns the steps; the
// caller checks for data() separately if legal.
func (p *parser) parsePathSteps() ([]string, error) {
	var path []string
	for p.at(tokSlash) {
		p.next()
		if p.at(tokStar) {
			p.next()
			path = append(path, Wildcard)
			continue
		}
		step, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if step.text == "data" && p.at(tokLParen) {
			// Give the caller a chance to handle data(); rewind.
			p.pos -= 2
			return path, nil
		}
		path = append(path, step.text)
	}
	return path, nil
}

// parseCondition parses `Operand RelOp Operand`.
func (p *parser) parseCondition() (Condition, error) {
	left, err := p.parseOperand()
	if err != nil {
		return Condition{}, err
	}
	opTok := p.next()
	var op xtree.CmpOp
	switch opTok.kind {
	case tokEQ:
		op = xtree.OpEQ
	case tokNE:
		op = xtree.OpNE
	case tokLT:
		op = xtree.OpLT
	case tokLE:
		op = xtree.OpLE
	case tokGT:
		op = xtree.OpGT
	case tokGE:
		op = xtree.OpGE
	default:
		return Condition{}, p.errorf("expected comparison operator, found %s", opTok)
	}
	right, err := p.parseOperand()
	if err != nil {
		return Condition{}, err
	}
	return Condition{Left: left, Op: op, Right: right}, nil
}

func (p *parser) parseOperand() (Operand, error) {
	switch p.cur().kind {
	case tokString, tokNumber:
		t := p.next()
		return Operand{IsConst: true, Const: t.text}, nil
	case tokOID:
		t := p.next()
		return Operand{IsConst: true, Const: t.text}, nil
	case tokVar:
		v := p.next()
		path, err := p.parsePathSteps()
		if err != nil {
			return Operand{}, err
		}
		opnd := Operand{Var: v.text, Path: path}
		// optional /data()
		if p.at(tokSlash) {
			p.next()
			if t, err := p.expect(tokIdent); err != nil || t.text != "data" {
				return Operand{}, p.errorf("expected data() in path operand")
			}
			if _, err := p.expect(tokLParen); err != nil {
				return Operand{}, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return Operand{}, err
			}
			opnd.Data = true
		}
		return opnd, nil
	}
	return Operand{}, p.errorf("expected constant or variable path, found %s", p.cur())
}

// parseElement parses `<Label> ElementList </Label> {gb}?` or `$Var`.
func (p *parser) parseElement() (Element, error) {
	if p.at(tokVar) {
		return &VarRef{Var: p.next().text}, nil
	}
	if !p.at(tokLT) {
		return nil, p.errorf("expected element constructor or variable, found %s", p.cur())
	}
	p.next()
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokGT); err != nil {
		return nil, err
	}
	ctor := &ElemCtor{Label: name.text}
	for !p.at(tokLTSlash) {
		child, err := p.parseContent()
		if err != nil {
			return nil, err
		}
		ctor.Children = append(ctor.Children, child)
	}
	if len(ctor.Children) == 0 {
		return nil, p.errorf("element <%s> has an empty element list", ctor.Label)
	}
	p.next() // consume '</'
	closeName, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if closeName.text != ctor.Label {
		return nil, p.errorf("mismatched closing tag </%s> for <%s>", closeName.text, ctor.Label)
	}
	if _, err := p.expect(tokGT); err != nil {
		return nil, err
	}
	if p.at(tokLBrace) {
		p.next()
		for {
			v, err := p.expect(tokVar)
			if err != nil {
				return nil, err
			}
			ctor.GroupBy = append(ctor.GroupBy, v.text)
			if p.at(tokComma) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
	}
	return ctor, nil
}

// parseContent parses one item of an ElementList: a nested constructor with
// its optional group-by list, a variable with its optional group-by list, or
// a nested query.
func (p *parser) parseContent() (Content, error) {
	switch {
	case p.atKeyword("FOR"):
		return p.parseQuery()
	case p.at(tokVar):
		v := &VarRef{Var: p.next().text}
		// A variable directly inside an ElementList may be followed by a
		// group-by list in the paper's examples (e.g. `$O ... {$O}` in
		// Figure 3 attaches to the enclosing constructor). Variables do
		// not carry their own group-by; leave braces to the enclosing
		// constructor's parse.
		return v, nil
	case p.at(tokLT):
		el, err := p.parseElement()
		if err != nil {
			return nil, err
		}
		return el, nil
	}
	return nil, p.errorf("expected element content, found %s", p.cur())
}
