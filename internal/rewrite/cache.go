package rewrite

import (
	"sort"
	"strconv"
	"strings"

	"mix/internal/cache"
	"mix/internal/xmas"
)

// Cache memoizes Optimize. Rewriting validates the plan and runs the Table 2
// rule set to a fixpoint, which the mediator pays on every planned query; browse-style sessions re-plan the same handful of query
// shapes constantly. Keys are the canonical plan text (xmas.CanonicalKey —
// the per-query result root id is normalized away; translate and compose
// generate variables deterministically, so equal query text means equal
// canonical plans) plus a fingerprint of the Options, including the
// ChildLabels content (the mediator's schema map grows as sources are
// registered, and schema-unsat rewrites depend on it).
//
// Optimize never mutates its output after returning it and downstream
// consumers (sqlgen.Push, the compiler) treat plans as immutable, so one
// cached plan may be shared by every hit. The applied-step trace is not
// retained: hits return a nil trace, which only Explain-style callers read
// — they call Optimize directly.
type Cache struct {
	lru *cache.LRU[string, xmas.Op]
}

// NewCache creates a cache holding at most entries optimized plans.
func NewCache(entries int) *Cache {
	return &Cache{lru: cache.NewLRU[string, xmas.Op](entries)}
}

// Stats snapshots the hit/miss/eviction counters.
func (c *Cache) Stats() cache.Stats { return c.lru.Stats() }

// Optimize is the caching counterpart of the package-level Optimize. A nil
// receiver rewrites directly — callers hold one optional cache and never
// branch. Errors are not cached.
func (c *Cache) Optimize(plan xmas.Op, opts Options) (xmas.Op, []Step, error) {
	if c == nil {
		return Optimize(plan, opts)
	}
	key := xmas.CanonicalKey(plan) + "\x01" + optsKey(opts)
	if out, ok := c.lru.Get(key); ok {
		return rebindRoot(out, rootOf(plan)), nil, nil
	}
	out, trace, err := Optimize(plan, opts)
	if err != nil {
		return nil, trace, err
	}
	c.lru.Put(key, rebindRoot(out, ""))
	return out, trace, nil
}

// rootOf extracts the top-level root id, "" when none.
func rootOf(plan xmas.Op) string {
	if td, ok := plan.(*xmas.TD); ok {
		return td.RootID
	}
	return ""
}

// rebindRoot returns op with its top-level TD root id set to rootID,
// sharing everything below the root operator. Entries are stored with the
// id blanked and hits rebind the requester's id, so the served plan is
// exactly what an uncached rewrite would have produced.
func rebindRoot(op xmas.Op, rootID string) xmas.Op {
	td, ok := op.(*xmas.TD)
	if !ok || td.RootID == rootID {
		return op
	}
	cp := *td
	cp.RootID = rootID
	return &cp
}

// optsKey fingerprints the rewrite options, ChildLabels by content in
// sorted key order.
func optsKey(o Options) string {
	var b strings.Builder
	b.WriteString(strconv.FormatBool(o.NoUnfold))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(o.NoPushdown))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(o.NoDeadElim))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(o.NoSemijoinPush))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(o.MaxSteps))
	keys := make([]string, 0, len(o.ChildLabels))
	for k := range o.ChildLabels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strings.Join(o.ChildLabels[k], ","))
	}
	return b.String()
}
