// Package shard is the coordinator layer for sharded virtual views: a
// partitioning spec assigns every top-level child of a view to one of N
// member mediators, and a coordinator Doc fans scans out across the members
// over the existing wire machinery — concurrent cursor opens, batched
// windows, the binary codec — merging the member streams back into one.
// Merging preserves global document order when the plan can observe it
// (xmas.OrderDemand), and decontextualized point queries are routed only to
// the members whose partition can match.
package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"mix/internal/xtree"
)

// Mode selects how a Spec maps partition keys to shards.
type Mode int

const (
	// ModeHash assigns a key to shard fnv32a(key) mod N.
	ModeHash Mode = iota
	// ModeRange assigns a key to the first bound it sorts below; keys at or
	// above every bound land on the last shard.
	ModeRange
)

func (m Mode) String() string {
	if m == ModeRange {
		return "range"
	}
	return "hash"
}

// Spec describes how a view's top-level children are partitioned across
// shards. The partition key of a child is its object id when KeyPath is
// nil, otherwise the atomized value reached by KeyPath — a downward label
// path starting at the child's own label (the same shape the engine's
// getD paths have).
//
// A non-nil KeyPath must be single-valued: at most one element per child
// may match it. Multi-valued key paths would let a child satisfy a pushed
// key constraint through a value other than its partition key, making
// pruning unsound. Wrapper views keyed on a key column satisfy this by
// construction.
type Spec struct {
	Mode    Mode
	N       int      // shard count (ModeHash); ignored for ModeRange
	Bounds  []string // ModeRange: ascending upper-exclusive bounds; len+1 shards
	KeyPath []string // nil: partition on the child's object id
}

// Shards returns the number of shards the spec addresses.
func (s Spec) Shards() int {
	if s.Mode == ModeRange {
		return len(s.Bounds) + 1
	}
	return s.N
}

// Validate checks the spec is well-formed.
func (s Spec) Validate() error {
	switch s.Mode {
	case ModeHash:
		// ShardOf reduces a 32-bit hash modulo N, so N must fit in 32 bits.
		if s.N < 1 || uint64(s.N) > math.MaxUint32 {
			return fmt.Errorf("shard: hash spec needs 1 <= N <= %d, got %d", uint64(math.MaxUint32), s.N)
		}
	case ModeRange:
		if len(s.Bounds) == 0 {
			return fmt.Errorf("shard: range spec needs at least one bound")
		}
		for i, b := range s.Bounds {
			if b == "" {
				return fmt.Errorf("shard: range bounds must be non-empty")
			}
			if i > 0 && s.Bounds[i-1] >= b {
				return fmt.Errorf("shard: range bounds must ascend, %q >= %q", s.Bounds[i-1], b)
			}
		}
	default:
		return fmt.Errorf("shard: unknown mode %d", s.Mode)
	}
	for _, step := range s.KeyPath {
		if step == "" || step == "*" || step == "%" {
			return fmt.Errorf("shard: key path steps must be concrete labels")
		}
	}
	return nil
}

// ShardOf maps a partition key to its shard index. Keys are normalized so
// that atoms the engine's comparisons treat as equal land on one shard.
func (s Spec) ShardOf(key string) int {
	key = NormalizeKey(key)
	if s.Mode == ModeRange {
		return sort.Search(len(s.Bounds), func(i int) bool { return key < s.Bounds[i] })
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(s.N))
}

// NormalizeKey canonicalizes an atom the way the engine's hash joins do:
// numerically equal atoms map to one key, everything else is taken
// verbatim.
func NormalizeKey(key string) string {
	if f, ok := xtree.ParseNumber(key); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return key
}

// String renders the spec in the form ParseSpec accepts.
func (s Spec) String() string {
	var b strings.Builder
	if s.Mode == ModeRange {
		b.WriteString("range:")
		b.WriteString(strings.Join(s.Bounds, ","))
	} else {
		fmt.Fprintf(&b, "hash:%d", s.N)
	}
	if len(s.KeyPath) > 0 {
		b.WriteString("@")
		b.WriteString(strings.Join(s.KeyPath, "."))
	}
	return b.String()
}

// ParseSpec parses a shard spec of the form "hash:N" or
// "range:b1,b2,..." with an optional "@label.label..." key-path suffix,
// e.g. "hash:3@CustRec.customer.id".
func ParseSpec(text string) (Spec, error) {
	var s Spec
	body := text
	if at := strings.IndexByte(text, '@'); at >= 0 {
		body = text[:at]
		s.KeyPath = strings.Split(text[at+1:], ".")
	}
	mode, arg, ok := strings.Cut(body, ":")
	if !ok {
		return Spec{}, fmt.Errorf("shard: spec %q: want mode:args", text)
	}
	switch mode {
	case "hash":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("shard: spec %q: bad shard count: %v", text, err)
		}
		s.Mode, s.N = ModeHash, n
	case "range":
		s.Mode = ModeRange
		s.Bounds = strings.Split(arg, ",")
	default:
		return Spec{}, fmt.Errorf("shard: spec %q: unknown mode %q", text, mode)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// KeyOf extracts a top-level child's partition key under keyPath: nil means
// the child's object id; otherwise the first element (in document order)
// reached by walking keyPath from the child — whose first step must match
// the child's own label — atomized the way the engine compares values
// (atom, falling back to object id). A child the path misses keys as "".
func KeyOf(n *xtree.Node, keyPath []string) string {
	if len(keyPath) == 0 {
		return string(n.ID)
	}
	if m := firstAtPath(n, keyPath); m != nil {
		if a, ok := m.Atom(); ok {
			return a
		}
		return string(m.ID)
	}
	return ""
}

// firstAtPath returns the first element, in document order, reachable from
// n by a downward walk spelling path (n's own label is step 0).
func firstAtPath(n *xtree.Node, path []string) *xtree.Node {
	if n == nil || len(path) == 0 || n.Label != path[0] {
		return nil
	}
	if len(path) == 1 {
		return n
	}
	var walk func(e *xtree.Node, idx int) *xtree.Node
	walk = func(e *xtree.Node, idx int) *xtree.Node {
		if idx == len(path)-1 {
			return e
		}
		for _, kid := range e.Children {
			if kid.Label == path[idx+1] {
				if m := walk(kid, idx+1); m != nil {
					return m
				}
			}
		}
		return nil
	}
	return walk(n, 0)
}
