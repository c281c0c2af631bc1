// Package xmlio parses and serializes the XML subset MIX file sources use.
//
// The paper's data model deliberately excludes attributes (Section 2,
// footnote on the labeled-tree signature), so this parser accepts elements,
// character content, comments, processing instructions and a prolog, and
// rejects nothing else it can silently drop: attributes are parsed and
// ignored by default (Strict mode reports them), entities for the five XML
// built-ins are decoded, and CDATA sections are honored.
//
// It is written from scratch on purpose: MIX's sources are "wrapped to offer
// an XML view of themselves" and a self-contained scanner keeps the whole
// substrate dependency-free and instrumentable.
package xmlio

import (
	"fmt"
	"strings"

	"mix/internal/xtree"
)

// Options configure parsing.
type Options struct {
	// Strict makes attributes and mixed content errors instead of being
	// dropped/kept respectively.
	Strict bool
	// IDPrefix, when non-empty, assigns each element the id
	// "&<IDPrefix>.<preorder index>" so file-source nodes are addressable.
	IDPrefix string
	// KeepWhitespaceText keeps whitespace-only character data as leaves.
	KeepWhitespaceText bool
}

// Parse parses an XML document into a labeled ordered tree using default
// options (lenient, no ids, whitespace-only text dropped).
func Parse(input string) (*xtree.Node, error) {
	return ParseWith(input, Options{})
}

// ParseWith parses an XML document with explicit options.
func ParseWith(input string, opts Options) (*xtree.Node, error) {
	p := &parser{src: input, opts: opts}
	p.skipProlog()
	if rest := p.src[p.pos:]; !strings.Contains(rest, "<") {
		// Character data alone is a one-node tree: what Serialize writes
		// for a leaf, and for an element without children.
		if label := decodeEntities(rest); label != "" {
			return &xtree.Node{ID: p.allocID(), Label: label}, nil
		}
	}
	root, err := p.parseElement()
	if err != nil {
		return nil, err
	}
	p.skipMisc()
	if !p.eof() {
		return nil, p.errorf("trailing content after document element")
	}
	return root, nil
}

// SyntaxError reports a malformed document with line/column position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlio: %d:%d: %s", e.Line, e.Col, e.Msg)
}

type parser struct {
	src    string
	pos    int
	opts   Options
	nextID int
}

func (p *parser) eof() bool { return p.pos >= len(p.src) }

func (p *parser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) errorf(format string, args ...any) error {
	line, col := 1, 1
	for i := 0; i < p.pos && i < len(p.src); i++ {
		if p.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipWS() {
	for !p.eof() {
		switch p.src[p.pos] {
		case ' ', '\t', '\r', '\n':
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) skipProlog() {
	p.skipWS()
	for strings.HasPrefix(p.src[p.pos:], "<?") || strings.HasPrefix(p.src[p.pos:], "<!--") || strings.HasPrefix(p.src[p.pos:], "<!DOCTYPE") {
		switch {
		case strings.HasPrefix(p.src[p.pos:], "<?"):
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
			} else {
				p.pos = len(p.src)
			}
		case strings.HasPrefix(p.src[p.pos:], "<!--"):
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
			} else {
				p.pos = len(p.src)
			}
		default: // DOCTYPE: skip to closing '>'
			if i := strings.IndexByte(p.src[p.pos:], '>'); i >= 0 {
				p.pos += i + 1
			} else {
				p.pos = len(p.src)
			}
		}
		p.skipWS()
	}
}

func (p *parser) skipMisc() {
	p.skipWS()
	for strings.HasPrefix(p.src[p.pos:], "<?") || strings.HasPrefix(p.src[p.pos:], "<!--") {
		if strings.HasPrefix(p.src[p.pos:], "<?") {
			if i := strings.Index(p.src[p.pos:], "?>"); i >= 0 {
				p.pos += i + 2
			} else {
				p.pos = len(p.src)
			}
		} else {
			if i := strings.Index(p.src[p.pos:], "-->"); i >= 0 {
				p.pos += i + 3
			} else {
				p.pos = len(p.src)
			}
		}
		p.skipWS()
	}
}

func isNameStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

func (p *parser) parseName() (string, error) {
	start := p.pos
	if p.eof() || !isNameStart(p.src[p.pos]) {
		return "", p.errorf("expected name")
	}
	p.pos++
	for !p.eof() && isNameChar(p.src[p.pos]) {
		p.pos++
	}
	return p.src[start:p.pos], nil
}

func (p *parser) allocID() xtree.ID {
	if p.opts.IDPrefix == "" {
		return ""
	}
	id := xtree.ID(fmt.Sprintf("&%s.%d", p.opts.IDPrefix, p.nextID))
	p.nextID++
	return id
}

// parseElement parses one element starting at '<'.
func (p *parser) parseElement() (*xtree.Node, error) {
	p.skipWS()
	if p.eof() || p.peek() != '<' {
		return nil, p.errorf("expected element start")
	}
	p.pos++ // consume '<'
	name, err := p.parseName()
	if err != nil {
		return nil, err
	}
	node := &xtree.Node{ID: p.allocID(), Label: name}

	// Attributes: parsed, checked, dropped (or rejected in Strict mode).
	for {
		p.skipWS()
		if p.eof() {
			return nil, p.errorf("unexpected end of input in tag <%s>", name)
		}
		c := p.peek()
		if c == '>' || c == '/' {
			break
		}
		attrName, err := p.parseName()
		if err != nil {
			return nil, p.errorf("malformed attribute in <%s>", name)
		}
		p.skipWS()
		if p.eof() || p.peek() != '=' {
			return nil, p.errorf("attribute %s missing '='", attrName)
		}
		p.pos++
		p.skipWS()
		if p.eof() || (p.peek() != '"' && p.peek() != '\'') {
			return nil, p.errorf("attribute %s missing quoted value", attrName)
		}
		quote := p.peek()
		p.pos++
		end := strings.IndexByte(p.src[p.pos:], quote)
		if end < 0 {
			return nil, p.errorf("unterminated attribute value for %s", attrName)
		}
		p.pos += end + 1
		if p.opts.Strict {
			return nil, p.errorf("attribute %s not allowed in the MIX data model", attrName)
		}
	}

	if p.peek() == '/' { // self-closing
		p.pos++
		if p.eof() || p.peek() != '>' {
			return nil, p.errorf("malformed self-closing tag <%s>", name)
		}
		p.pos++
		return node, nil
	}
	p.pos++ // consume '>'

	if err := p.parseContent(node); err != nil {
		return nil, err
	}

	// Closing tag.
	closeName, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if closeName != name {
		return nil, p.errorf("mismatched closing tag </%s> for <%s>", closeName, name)
	}
	p.skipWS()
	if p.eof() || p.peek() != '>' {
		return nil, p.errorf("malformed closing tag </%s>", closeName)
	}
	p.pos++
	return node, nil
}

// parseContent parses children until it consumes "</" of the parent.
func (p *parser) parseContent(parent *xtree.Node) error {
	var text strings.Builder
	flushText := func() {
		s := text.String()
		text.Reset()
		if s == "" {
			return
		}
		if !p.opts.KeepWhitespaceText && strings.TrimSpace(s) == "" {
			return
		}
		parent.Children = append(parent.Children, &xtree.Node{ID: p.allocID(), Label: decodeEntities(s)})
	}
	for {
		if p.eof() {
			return p.errorf("unterminated element <%s>", parent.Label)
		}
		c := p.peek()
		if c != '<' {
			text.WriteByte(c)
			p.pos++
			continue
		}
		rest := p.src[p.pos:]
		switch {
		case strings.HasPrefix(rest, "</"):
			flushText()
			p.pos += 2
			return nil
		case strings.HasPrefix(rest, "<!--"):
			flushText()
			i := strings.Index(rest, "-->")
			if i < 0 {
				return p.errorf("unterminated comment")
			}
			p.pos += i + 3
		case strings.HasPrefix(rest, "<![CDATA["):
			i := strings.Index(rest, "]]>")
			if i < 0 {
				return p.errorf("unterminated CDATA section")
			}
			text.WriteString(rest[len("<![CDATA["):i])
			p.pos += i + 3
		case strings.HasPrefix(rest, "<?"):
			flushText()
			i := strings.Index(rest, "?>")
			if i < 0 {
				return p.errorf("unterminated processing instruction")
			}
			p.pos += i + 2
		default:
			flushText()
			child, err := p.parseElement()
			if err != nil {
				return err
			}
			parent.Children = append(parent.Children, child)
		}
	}
}

func decodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return strings.TrimSpace(s)
	}
	r := strings.NewReplacer(
		"&lt;", "<", "&gt;", ">", "&amp;", "&", "&apos;", "'", "&quot;", `"`,
	)
	return strings.TrimSpace(r.Replace(s))
}
