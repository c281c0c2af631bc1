package shard_test

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"mix/internal/shard"
	"mix/internal/source"
	"mix/internal/testleak"
	"mix/internal/xtree"
)

// child builds one top-level element <customer id=&id><id>key</id></customer>.
func child(id, key string) *xtree.Node {
	return xtree.NewElem(xtree.ID("&"+id), "customer",
		xtree.NewElem(xtree.ID("&"+id+".id"), "id", xtree.Text(key)))
}

// localDoc serves a fixed child list; optionally failing with a typed
// availability error after failAfter elements (failAfter < 0 disables).
type localDoc struct {
	id        string
	kids      []*xtree.Node
	failAfter int
	failWith  error
}

func (d *localDoc) RootID() string { return d.id }

func (d *localDoc) Open(source.ScanOpts) (source.ElemCursor, error) {
	return &localCursor{d: d}, nil
}

type localCursor struct {
	d *localDoc
	i int
}

func (c *localCursor) Next() (*xtree.Node, bool, error) {
	if c.d.failAfter >= 0 && c.i >= c.d.failAfter {
		return nil, false, c.d.failWith
	}
	if c.i >= len(c.d.kids) {
		return nil, false, nil
	}
	n := c.d.kids[c.i]
	c.i++
	return n, true, nil
}

func (c *localCursor) Close() {}

// fleet partitions keys across n members of a hash-on-id coordinator.
func fleet(t *testing.T, n int, keys []string, cfg shard.Config) (*shard.Doc, shard.Spec) {
	t.Helper()
	spec := shard.Spec{Mode: shard.ModeHash, N: n}
	parts := make([][]*xtree.Node, n)
	for _, k := range keys {
		c := child(k, k)
		s := spec.ShardOf(string(c.ID))
		parts[s] = append(parts[s], c)
	}
	members := make([]shard.Member, n)
	for i := range members {
		members[i] = shard.Member{
			ID:  fmt.Sprintf("shard%d", i),
			Doc: &localDoc{id: fmt.Sprintf("&m%d", i), kids: parts[i], failAfter: -1},
		}
	}
	d, err := shard.NewDoc("&fleet", spec, members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, spec
}

func drain(t *testing.T, cur source.ElemCursor) ([]string, []error) {
	t.Helper()
	defer cur.Close()
	var ids []string
	var errs []error
	for {
		n, ok, err := cur.Next()
		if err != nil {
			var sue *source.SourceUnavailableError
			if !errors.As(err, &sue) {
				t.Fatalf("terminal error: %v", err)
			}
			errs = append(errs, err)
			if _, resilient := cur.(source.ResilientCursor); !resilient {
				return ids, errs
			}
			continue
		}
		if !ok {
			return ids, errs
		}
		ids = append(ids, string(n.ID))
	}
}

func keyRange(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("C%06d", i)
	}
	return keys
}

func TestSpecParseRoundTrip(t *testing.T) {
	for _, text := range []string{"hash:3", "range:C000400,C000800", "hash:4@CustRec.customer.id"} {
		s, err := shard.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", text, err)
		}
		if got := s.String(); got != text {
			t.Fatalf("round trip %q -> %q", text, got)
		}
	}
	for _, text := range []string{"hash:0", "range:", "range:b,a", "bogus:1", "hash:2@a.%"} {
		if _, err := shard.ParseSpec(text); err == nil {
			t.Fatalf("ParseSpec(%q) should fail", text)
		}
	}
}

// TestSpecShardCountFitsHash: ShardOf reduces a 32-bit hash modulo N, so a
// hash spec with more shards than that rejects, instead of wrapping N to
// zero (a divide-by-zero panic) or to a smaller count (keys on the wrong
// shard).
func TestSpecShardCountFitsHash(t *testing.T) {
	for _, text := range []string{"hash:4294967296@customer.id", "hash:4294967297", "hash:9223372036854775807"} {
		if s, err := shard.ParseSpec(text); err == nil {
			t.Fatalf("ParseSpec(%q) = %v, want an error", text, s)
		}
	}
	s, err := shard.ParseSpec("hash:4294967295")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ShardOf("C000042"); got < 0 || got >= s.Shards() {
		t.Fatalf("ShardOf = %d, want in [0, %d)", got, s.Shards())
	}
}

// FuzzParseSpec: a spec ParseSpec accepts prints back to text that parses
// to an equal spec, and ShardOf maps any key into [0, Shards()).
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"hash:3", "range:C000400,C000800", "hash:4@CustRec.customer.id", "hash:+7", "range:a:b@x"} {
		f.Add(seed, "C000042")
	}
	f.Fuzz(func(t *testing.T, text, key string) {
		s, err := shard.ParseSpec(text)
		if err != nil {
			return
		}
		back, err := shard.ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v prints as %q, which does not parse: %v", text, s, s.String(), err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("ParseSpec(%q) = %+v prints as %q, which parses to %+v", text, s, s.String(), back)
		}
		if got := s.ShardOf(key); got < 0 || got >= s.Shards() {
			t.Fatalf("%v: ShardOf(%q) = %d, want in [0, %d)", s, key, got, s.Shards())
		}
	})
}

func TestShardOf(t *testing.T) {
	r := shard.Spec{Mode: shard.ModeRange, Bounds: []string{"C000400", "C000800"}}
	for key, want := range map[string]int{"C000000": 0, "C000399": 0, "C000400": 1, "C000799": 1, "C000800": 2, "D": 2} {
		if got := r.ShardOf(key); got != want {
			t.Fatalf("range ShardOf(%q) = %d, want %d", key, got, want)
		}
	}
	h := shard.Spec{Mode: shard.ModeHash, N: 5}
	for _, key := range keyRange(50) {
		s := h.ShardOf(key)
		if s < 0 || s >= 5 {
			t.Fatalf("hash ShardOf(%q) = %d out of range", key, s)
		}
		if s != h.ShardOf(key) {
			t.Fatalf("hash ShardOf(%q) not deterministic", key)
		}
	}
	// Numerically equal atoms must land on one shard, matching the
	// engine's comparison semantics.
	if h.ShardOf("10") != h.ShardOf("10.0") {
		t.Fatal("numeric keys must normalize before hashing")
	}
}

// TestNormalizeKey: numeric keys normalise as strconv.ParseFloat reads them,
// anything else is taken verbatim, and a non-numeric key costs no
// allocation (a throwaway *strconv.NumError used to, on every routed key).
func TestNormalizeKey(t *testing.T) {
	for _, key := range []string{"42", "042", "4.20", "1e3", "-0", "+7", ".5", "0x10", "nan", "NaN", "inf",
		"-Inf", "infinity", "1_0", "1e", "12ab", "C000042", "now", "", " 1"} {
		want := key
		if f, err := strconv.ParseFloat(key, 64); err == nil {
			want = strconv.FormatFloat(f, 'g', -1, 64)
		}
		if got := shard.NormalizeKey(key); got != want {
			t.Errorf("NormalizeKey(%q) = %q, want %q", key, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { shard.NormalizeKey("C000042") }); n != 0 {
		t.Fatalf("NormalizeKey of a non-numeric key: %v allocations, want 0", n)
	}
}

func TestKeyOf(t *testing.T) {
	c := child("C1", "k1")
	if got := shard.KeyOf(c, nil); got != "&C1" {
		t.Fatalf("node-id key = %q", got)
	}
	if got := shard.KeyOf(c, []string{"customer", "id"}); got != "k1" {
		t.Fatalf("path key = %q", got)
	}
	if got := shard.KeyOf(c, []string{"orders", "id"}); got != "" {
		t.Fatalf("mismatched path key = %q, want empty", got)
	}
	if got := shard.KeyOf(c, []string{"customer"}); got != "&C1" {
		t.Fatalf("self path without atom should fall back to id, got %q", got)
	}
}

// Ordered scans must reproduce the unsharded document order exactly, in
// every execution mode.
func TestOrderedMergeParity(t *testing.T) {
	defer testleak.Check(t)()
	keys := keyRange(60)
	var want []string
	for _, k := range keys {
		want = append(want, "&"+k)
	}
	d, _ := fleet(t, 3, keys, shard.Config{})
	for _, opts := range []source.ScanOpts{
		{},
		{Parallel: true},
		{Parallel: true, BatchSize: 8, Prefetch: true},
	} {
		cur, err := d.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		got, errs := drain(t, cur)
		if len(errs) > 0 {
			t.Fatalf("opts %+v: unexpected member errors %v", opts, errs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %+v: merged order diverges:\ngot  %v\nwant %v", opts, got, want)
		}
	}
}

// Unordered scans interleave deterministically: repeated runs, sequential
// or parallel, must deliver one identical sequence.
func TestUnorderedDeterministic(t *testing.T) {
	defer testleak.Check(t)()
	d, _ := fleet(t, 3, keyRange(40), shard.Config{})
	var first []string
	for run := 0; run < 3; run++ {
		for _, par := range []bool{false, true} {
			cur, err := d.Open(source.ScanOpts{Unordered: true, Parallel: par})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := drain(t, cur)
			if first == nil {
				first = got
				continue
			}
			if !reflect.DeepEqual(got, first) {
				t.Fatalf("run %d par=%v: interleave not deterministic", run, par)
			}
		}
	}
	if len(first) != 40 {
		t.Fatalf("delivered %d children, want 40", len(first))
	}
}

// A key constraint on the partition key routes the scan to exactly one
// member; conflicting constraints route to none.
func TestPruning(t *testing.T) {
	keys := keyRange(30)
	d, spec := fleet(t, 3, keys, shard.Config{})
	target := "&" + keys[7]
	cur, err := d.Open(source.ScanOpts{Keys: []source.KeyConstraint{{Value: target}}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drain(t, cur)
	// Pruning is routing, not filtering: the one contacted member delivers
	// its whole partition, and the target must be in it.
	found := false
	for _, id := range got {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("pruned scan lost the matching child %s", target)
	}
	st := d.Stats()
	if st.Pruned != 1 {
		t.Fatalf("Pruned = %d, want 1", st.Pruned)
	}
	routed := 0
	for _, n := range st.Routes {
		routed += int(n)
	}
	if routed != 1 {
		t.Fatalf("point scan contacted %d members, want 1", routed)
	}
	want := spec.ShardOf(target)
	if st.Routes[fmt.Sprintf("shard%d", want)] != 1 {
		t.Fatalf("routed to the wrong member: %v (want shard%d)", st.Routes, want)
	}

	// Conflicting equalities pinning different shards: no member can match.
	other := ""
	for _, k := range keys {
		if spec.ShardOf("&"+k) != spec.ShardOf(target) {
			other = "&" + k
			break
		}
	}
	cur, err = d.Open(source.ScanOpts{Unordered: true, Keys: []source.KeyConstraint{
		{Value: target}, {Value: other},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := drain(t, cur); len(got) != 0 {
		t.Fatalf("conflicting constraints delivered %d children, want 0", len(got))
	}
	// Constraints on other paths must not prune.
	cur, err = d.Open(source.ScanOpts{Unordered: true, Keys: []source.KeyConstraint{
		{Path: []string{"customer", "name"}, Value: "x"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := drain(t, cur); len(got) != len(keys) {
		t.Fatalf("unrelated constraint pruned: %d of %d children", len(got), len(keys))
	}
}

// Losing one member mid-scan surfaces once as a typed per-member error and
// the merge keeps delivering the survivors' children.
func TestMemberLossResilience(t *testing.T) {
	defer testleak.Check(t)()
	spec := shard.Spec{Mode: shard.ModeHash, N: 3}
	parts := make([][]*xtree.Node, 3)
	total := 0
	for _, k := range keyRange(30) {
		c := child(k, k)
		s := spec.ShardOf(string(c.ID))
		parts[s] = append(parts[s], c)
		total++
	}
	members := []shard.Member{
		{ID: "shard0", Doc: &localDoc{id: "&m0", kids: parts[0], failAfter: -1}},
		{ID: "shard1", Doc: &localDoc{id: "&m1", kids: parts[1], failAfter: 2,
			failWith: &source.SourceUnavailableError{Source: "&m1", Err: errors.New("killed")}}},
		{ID: "shard2", Doc: &localDoc{id: "&m2", kids: parts[2], failAfter: -1}},
	}
	d, err := shard.NewDoc("&fleet", spec, members, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []bool{false, true} {
		cur, err := d.Open(source.ScanOpts{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		got, errs := drain(t, cur)
		if len(errs) != 1 {
			t.Fatalf("par=%v: %d member errors, want 1", par, len(errs))
		}
		var sue *source.SourceUnavailableError
		if !errors.As(errs[0], &sue) || sue.Source != "&fleet[shard1]" {
			t.Fatalf("par=%v: error %v does not name the lost shard", par, errs[0])
		}
		want := total - len(parts[1]) + 2 // survivors plus shard1's two pre-fault children
		if len(got) != want {
			t.Fatalf("par=%v: delivered %d children after member loss, want %d", par, len(got), want)
		}
	}

	// A non-availability failure is terminal.
	members[1].Doc = &localDoc{id: "&m1", kids: parts[1], failAfter: 1, failWith: errors.New("corrupt frame")}
	d2, err := shard.NewDoc("&fleet", spec, members, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := d2.Open(source.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	sawTerminal := false
	for i := 0; i < total+2; i++ {
		_, ok, err := cur.Next()
		if err != nil {
			var sue *source.SourceUnavailableError
			if errors.As(err, &sue) {
				t.Fatalf("terminal failure arrived typed: %v", err)
			}
			sawTerminal = true
			break
		}
		if !ok {
			break
		}
	}
	if !sawTerminal {
		t.Fatal("corrupt member never surfaced a terminal error")
	}
}

// Closing a parallel scan mid-stream cancels and joins every pump (the
// testleak guard fails the test otherwise).
func TestCloseJoinsPumps(t *testing.T) {
	defer testleak.Check(t)()
	d, _ := fleet(t, 4, keyRange(200), shard.Config{Window: 4})
	cur, err := d.Open(source.ScanOpts{Unordered: true, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := cur.Next(); err != nil || !ok {
			t.Fatalf("short read: ok=%v err=%v", ok, err)
		}
	}
	cur.Close()
	cur.Close() // idempotent
}

func TestEstRowsAndShardCount(t *testing.T) {
	d, _ := fleet(t, 3, keyRange(10), shard.Config{})
	if d.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d", d.ShardCount())
	}
	// localDoc has no size hint: unknown.
	if _, ok := d.EstRows(); ok {
		t.Fatal("EstRows should be unknown without member hints")
	}
}
