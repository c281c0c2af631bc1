package wire

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mix/internal/engine"
	"mix/internal/rewrite"
	"mix/internal/workload"
	"mix/internal/xmas"
	"mix/internal/xmlio"
	"mix/internal/xtree"
)

// encodeTree is what a mediator ships for a tree it holds.
func encodeTree(n *xtree.Node) string { return string(engine.FromNode(n).AppendTree(nil)) }

// treeLabels are the labels generated trees draw from: empty, blank, padded,
// markup, non-ASCII, a NUL and one longer than a one-byte length.
var treeLabels = []string{"", " ", "  x  ", "a < b & c", "two\nlines", "é", "\x00", strings.Repeat("L", 200), "id", "name"}

// randomTree builds a tree of up to size nodes, its elements at most deep
// levels down.
func randomTree(rng *rand.Rand, size, deep int) *xtree.Node {
	label := treeLabels[rng.Intn(len(treeLabels))]
	if size <= 1 || deep == 0 || rng.Intn(4) == 0 {
		return xtree.Text(label)
	}
	n := &xtree.Node{Label: label}
	for size--; size > 0 && (len(n.Children) == 0 || rng.Intn(3) > 0); {
		k := randomTree(rng, 1+rng.Intn(size), deep-1)
		size -= k.Size()
		n.Children = append(n.Children, k)
	}
	return n
}

// checkIDs checks the numbering: the root keeps id, node i of the preorder
// below it is &<id>.i.
func checkIDs(t *testing.T, root *xtree.Node, id string) {
	t.Helper()
	i := 0
	root.Walk(func(n *xtree.Node) bool {
		want := xtree.ID(id)
		if i > 0 {
			want = xtree.ID(fmt.Sprintf("%s.%d", id, i))
		}
		if n.ID != want {
			t.Fatalf("node %d (%q) has id %q, want %q", i, n.Label, n.ID, want)
		}
		i++
		return true
	})
}

// TestTreeRoundTrip: generated trees decode to themselves, labels and
// structure, with ids numbered in preorder under the root's.
func TestTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		want := randomTree(rng, 1+rng.Intn(60), 1+rng.Intn(8))
		enc := encodeTree(want)
		got, err := decodeTree(enc, "&C7")
		if err != nil {
			t.Fatalf("tree %d %s: %v", i, want, err)
		}
		if !xtree.EqualShape(got, want) {
			t.Fatalf("tree %d: got %q, want %q", i, got, want)
		}
		checkIDs(t, got, "&C7")
		if again := encodeTree(got); again != enc {
			t.Fatalf("tree %d re-encodes differently", i)
		}
	}
}

// TestTreeRoundTripCorpus: every answer of the 150-plan generator corpus
// (seed 20020208) crosses encode → decode unchanged: the decoded tree equals
// the materialized answer node by node and serializes to the hash
// internal/rewrite froze for it.
func TestTreeRoundTripCorpus(t *testing.T) {
	frozen := map[int]string{}
	f, err := os.Open("../rewrite/testdata/corpus_answers.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var trial int
		var hash string
		if _, err := fmt.Sscanf(sc.Text(), "%d %s", &trial, &hash); err == nil {
			frozen[trial] = hash
		}
	}
	rng := rand.New(rand.NewSource(20020208))
	cat, _ := workload.PaperCatalog()
	checked := 0
	for trial := 0; trial < 150; trial++ {
		plan := workload.RandomPlan(rng)
		if xmas.Verify(plan) != nil {
			continue
		}
		opt, _, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := engine.Compile(opt, cat)
		if err != nil {
			t.Fatal(err)
		}
		res := prog.Run()
		enc := string(res.Root.AppendTree(nil))
		want := res.Materialize()
		got, err := decodeTree(enc, string(want.ID))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !xtree.EqualShape(got, want) {
			t.Fatalf("trial %d: decoded\n%s\nmaterialized\n%s", trial, got, want)
		}
		if h := fmt.Sprintf("%x", sha256.Sum256([]byte(xmlio.Serialize(got)))); h != frozen[trial] {
			t.Fatalf("trial %d: decoded answer hashes to %s, frozen %s", trial, h, frozen[trial])
		}
		checked++
	}
	if checked != len(frozen) {
		t.Fatalf("checked %d answers, %d frozen", checked, len(frozen))
	}
}

// badTrees are encodings the decoder must refuse.
var badTrees = map[string]string{
	"empty":                 "",
	"end first":             "\x00",
	"element left open":     "\x02\x01a\x01\x01b",
	"element without child": "\x02\x01a\x00",
	"two roots":             "\x01\x01a\x01\x01b",
	"trailing end mark":     "\x01\x01a\x00",
	"unknown kind":          "\x07\x01a",
	"label past the end":    "\x01\x05ab",
	"length cut off":        "\x01\x80",
	"length not minimal":    "\x01\x81\x00a",
	"length too long":       "\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",
}

func TestDecodeTreeRejects(t *testing.T) {
	for name, enc := range badTrees {
		_, err := decodeTree(enc, "&r")
		var te *TreeError
		if !errors.As(err, &te) {
			t.Errorf("%s: got %v, want a *TreeError", name, err)
		}
	}
}

// TestDecodeTreeDeep: nesting as deep as the bytes allow decodes without
// recursion.
func TestDecodeTreeDeep(t *testing.T) {
	const depth = 1 << 18
	enc := strings.Repeat("\x02\x01a", depth) + "\x01\x01z" + strings.Repeat("\x00", depth)
	n, err := decodeTree(enc, "&r")
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < depth; d++ {
		if len(n.Children) != 1 {
			t.Fatalf("level %d has %d children", d, len(n.Children))
		}
		n = n.Children[0]
	}
	if n.Label != "z" || n.ID != xtree.ID(fmt.Sprintf("&r.%d", depth)) {
		t.Fatalf("deepest node %q %q", n.ID, n.Label)
	}
}

// FuzzDecodeTree: subtree bytes come from the network. Every input either
// fails with a *TreeError or decodes to a tree that encodes back to exactly
// those bytes, its ids numbered in preorder.
func FuzzDecodeTree(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		f.Add(encodeTree(randomTree(rng, 1+rng.Intn(20), 4)))
	}
	for _, enc := range badTrees {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, enc string) {
		n, err := decodeTree(enc, "&r")
		if err != nil {
			var te *TreeError
			if !errors.As(err, &te) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if again := encodeTree(n); again != enc {
			t.Fatalf("decoded %q re-encodes to %q", enc, again)
		}
		checkIDs(t, n, "&r")
	})
}
