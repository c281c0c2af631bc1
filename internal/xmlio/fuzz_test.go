package xmlio

import (
	"errors"
	"testing"
)

// FuzzXMLParse: XML arrives from outside — the wire client parses each
// remote subtree's Deep XML with ParseWith, and XML file sources are parsed
// when a mediator loads them. Parse must answer any byte string with a
// *SyntaxError or a tree, never a panic, and the tree's serialization must
// parse back to a tree that serializes the same way.
func FuzzXMLParse(f *testing.F) {
	for _, src := range []string{
		`<customer><id>XYZ123</id><name>XYZ Inc.</name></customer>`,
		"<?xml version=\"1.0\"?>\n<!-- export -->\n<list>\n  <c><id>A</id></c>\n  <!-- x -->\n  <c><id>B</id></c>\n</list>\n<!-- end -->",
		`<a><b/><c><![CDATA[<raw & text>]]></c></a>`,
		`<v>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &apos;a&apos;</v>`,
		`<a x="1" y='2'><b z="3">v</b>t<?pi?></a>`,
		`<a/>`,
		`<a><b></a></b>`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tree, err := Parse(src)
		if err != nil {
			var serr *SyntaxError
			if !errors.As(err, &serr) {
				t.Fatalf("Parse(%q) = %v (%T), want a *SyntaxError", src, err, err)
			}
			return
		}
		out := Serialize(tree)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded, but its serialization %q does not parse: %v", src, out, err)
		}
		if again := Serialize(back); again != out {
			t.Fatalf("Parse(%q): serialization %q parses back to %q", src, out, again)
		}
	})
}
