// Package rewrite is the MIX rewriting optimizer (paper Section 6 and Table
// 2). It simplifies composed query/view plans by unfolding path expressions
// against the element constructors of the view, detecting unsatisfiable
// paths, pushing selections and getD operators toward the sources,
// introducing joins to unnest nested plans (Table 2 rule 9), eliminating the
// construction of objects the query never uses (live-variable analysis),
// converting joins whose one side is only tested for existence into
// semi-joins, and pushing semi-joins below grouping (rule 12) so they reach
// the sources.
//
// Each rewriting step is local: only the part of the plan matching the
// search pattern changes, plus possibly a plan-wide variable renaming —
// exactly the rewriter contract the paper describes.
package rewrite

import (
	"fmt"

	"mix/internal/xmas"
)

// Step records one applied rewrite. Optimize and OptimizeTraced append one
// per fired rule, so len(steps) counts the rules fired; only OptimizeTraced
// renders Plan.
type Step struct {
	Rule string
	Plan string // plan rendering after the step; "" unless traced
}

// Options tune the optimizer; the zero value enables everything. The
// ablation experiment (E14) disables groups of rules.
type Options struct {
	NoUnfold       bool // disable crElt/cat/apply path unfolding (rules 1-9)
	NoPushdown     bool // disable select/getD pushdown
	NoDeadElim     bool // disable live-variable elimination and join→semijoin
	NoSemijoinPush bool // disable semijoin-below-groupBy (rule 12)
	MaxSteps       int  // safety bound; 0 means the 10000 default

	// ChildLabels declares, per element label, the EXHAUSTIVE set of child
	// element labels. Wrapper relation labels qualify (a tuple element's
	// children are exactly its columns). When present it enables the
	// schema-unsat rule — the paper's §6 remark that source schema
	// knowledge "can be included easily by adding additional rewrite
	// rules". Labels absent from the map stay unconstrained.
	ChildLabels map[string][]string
}

// Optimize rewrites the plan to a fixpoint and returns the optimized plan
// and the applied-step trace. The input plan is not mutated; the result
// shares every subtree no rule touched with it.
//
// An input that fails xmas.Validate is rejected with an error. In debug mode
// (xmas.SetDebug, MIXDEBUG env) the input must pass xmas.Verify, every fired
// rule is gated — the plan must pass xmas.Verify after the step and the
// rewritten site must preserve its exported schema modulo renaming — and the
// result is verified once more. A gate rejection surfaces as a *GateError
// and always means a rule bug. Outside debug mode the result is verified
// where it is compiled (engine.Compile runs xmas.Verify).
func Optimize(plan xmas.Op, opts Options) (xmas.Op, []Step, error) {
	return optimize(plan, opts, false)
}

// OptimizeTraced is Optimize that also renders the whole plan into every
// Step (mix's Plan.Trace, the Figure 13→21 walk-through). The rules fired
// and the plan returned are the same as Optimize's.
func OptimizeTraced(plan xmas.Op, opts Options) (xmas.Op, []Step, error) {
	return optimize(plan, opts, true)
}

func optimize(plan xmas.Op, opts Options, traced bool) (xmas.Op, []Step, error) {
	debug := xmas.DebugEnabled()
	if debug {
		if err := xmas.Verify(plan); err != nil {
			return nil, nil, fmt.Errorf("rewrite: input plan invalid: %w", err)
		}
	} else if err := xmas.Validate(plan); err != nil {
		return nil, nil, fmt.Errorf("rewrite: input plan invalid: %w", err)
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10000
	}
	cur := plan
	var trace []Step
	step := func(rule string) Step {
		if traced {
			return Step{Rule: rule, Plan: xmas.Format(cur)}
		}
		return Step{Rule: rule}
	}
	rules := ruleSet(opts)
	m := newMemo()
	for steps := 0; ; {
		changed := false
		// Structural rules to fixpoint.
		for {
			f, ok := applyFirstInfo(cur, rules, m)
			if !ok {
				break
			}
			if debug {
				if err := checkStep(f, f.plan); err != nil {
					return nil, trace, err
				}
			}
			cur = f.plan
			trace = append(trace, step(f.rule))
			changed = true
			steps++
			if steps > maxSteps {
				return nil, trace, fmt.Errorf("rewrite: exceeded %d steps (rule loop?)", maxSteps)
			}
		}
		// Live-variable elimination and join→semijoin. Dead-elim narrows
		// schemas by design (that is its whole point), so the gate only
		// re-verifies the plan and skips the site-preservation check.
		if !opts.NoDeadElim {
			next, fired := eliminateDead(cur, m.schemas)
			if fired {
				if debug {
					if err := xmas.Verify(next); err != nil {
						return nil, trace, &GateError{Rule: "dead-elim", Err: err}
					}
				}
				cur = next
				trace = append(trace, step("dead-elim"))
				changed = true
				steps++
				continue
			}
		}
		if !changed {
			break
		}
	}
	if debug {
		if err := xmas.Verify(cur); err != nil {
			return nil, trace, fmt.Errorf("rewrite: produced invalid plan: %w", err)
		}
	}
	return cur, trace, nil
}

// rule is one rewrite rule. It fires at a specific site; renames apply to
// the whole plan afterwards ("the only change made in the rest of the plan
// ... is the possible renaming of variables").
type rule struct {
	name  string
	apply func(st *state, op xmas.Op) (xmas.Op, map[xmas.Var]xmas.Var, bool)
	at    opKind // the only kind of operator the rule can match at; anyOp for all
}

// opKind sorts operators by the rules that can match at them: every Table 2
// rule but empty-prop matches at one kind of operator only.
type opKind int

const (
	anyOp opKind = iota
	getDOp
	selectOp
	semiJoinOp
	numKinds
)

func kindOf(op xmas.Op) opKind {
	switch op.(type) {
	case *xmas.GetD:
		return getDOp
	case *xmas.Select:
		return selectOp
	case *xmas.SemiJoin:
		return semiJoinOp
	}
	return anyOp
}

// ruleBook holds the rule set once per operator kind, each list in rule-set
// order, so the matcher tries at a node only the rules that can match there.
type ruleBook [numKinds][]rule

func (b *ruleBook) at(op xmas.Op) []rule { return b[kindOf(op)] }

// state carries plan-wide context a rule may need (fresh-name generation,
// schemas) and records the fired site for the debug gate.
type state struct {
	root    xmas.Op
	taken   map[xmas.Var]bool // every variable of root; nil until takenVars
	m       *memo
	oldSite xmas.Op
	newSite xmas.Op
}

// takenVars returns the variables of the plan being rewritten, collected on
// first use: only a rule that mints fresh names asks, and most steps fire
// none.
func (st *state) takenVars() map[xmas.Var]bool {
	if st.taken == nil {
		st.taken = xmas.AllVars(st.root)
	}
	return st.taken
}

// schema returns op's schema, computed once per node for the whole rewrite.
func (st *state) schema(op xmas.Op) []xmas.Var { return st.m.schemas.Of(op) }

// memo is what one rewrite remembers between steps, by node identity. Plans
// are immutable and a step shares every subtree it did not touch with the
// plan before it, so what was learnt about a node stays true in every later
// plan that contains it.
//
// quiet holds the subtrees where no rule matched at any node. The matcher
// skips them, so after a step only the rebuilt spine, the new site and the
// renamed nodes are tried again. That is sound because a rule's decision at
// a node reads nothing outside that node's subtree: findDef and labelsOfVar
// search below the site, schemas are the subtree's own, and takenVars (the
// whole plan's variables) only picks the names a firing rule mints, never
// whether it fires. A rule that looked above its site or elsewhere in the
// plan would break this; keep new rules local, as Table 2's are. Skipping a
// subtree without a match cannot change which site matches first, so the
// step sequence is the one a matcher restarting from the root would take.
//
// schemas remembers each node's schema the same way.
type memo struct {
	quiet   map[xmas.Op]bool
	schemas xmas.Schemas
}

func newMemo() *memo {
	return &memo{quiet: map[xmas.Op]bool{}, schemas: xmas.Schemas{}}
}

// testExtraRules lets gate tests inject deliberately broken rules ahead of
// the real rule set. Always empty outside tests.
var testExtraRules []rule

func ruleSet(opts Options) *ruleBook {
	var rules []rule
	rules = append(rules, testExtraRules...)
	rules = append(rules, rule{"empty-prop", ruleEmptyProp, anyOp})
	if len(opts.ChildLabels) > 0 {
		rules = append(rules, rule{"schema-unsat", makeSchemaUnsat(opts.ChildLabels), getDOp})
	}
	if !opts.NoUnfold {
		rules = append(rules,
			rule{"view-unfold(11)", ruleViewUnfold, getDOp},
			rule{"elt-self(2)", ruleEltSelf, getDOp},
			rule{"elt-unsat(4)", ruleEltUnsat, getDOp},
			rule{"elt-unfold(1)", ruleEltUnfold, getDOp},
			rule{"cat-unfold(7)", ruleCatUnfold, getDOp},
			rule{"apply-unfold(9)", ruleApplyUnfold, getDOp},
		)
	}
	if !opts.NoPushdown {
		rules = append(rules,
			rule{"getD-pushdown(6)", ruleGetDPushdown, getDOp},
			rule{"select-pushdown", ruleSelectPushdown, selectOp},
		)
	}
	if !opts.NoSemijoinPush {
		rules = append(rules, rule{"semijoin-below-gBy(12)", ruleSemijoinPush, semiJoinOp})
	}
	var b ruleBook
	for k := range b {
		for _, r := range rules {
			if r.at == anyOp || r.at == opKind(k) {
				b[k] = append(b[k], r)
			}
		}
	}
	return &b
}

// firedStep describes one applied rewrite: the resulting plan, the rule,
// the site before and after (pre-renaming), and the step's plan-wide
// renaming. The debug gate checks schema preservation against it.
type firedStep struct {
	plan    xmas.Op
	rule    string
	oldSite xmas.Op
	newSite xmas.Op
	ren     map[xmas.Var]xmas.Var
}

// applyFirst walks the plan in pre-order (including nested apply plans and
// mkSrc view inputs) and applies the first matching rule at the first
// matching site, rebuilding the spine above it.
func applyFirst(root xmas.Op, rules *ruleBook) (xmas.Op, string, bool) {
	f, ok := applyFirstInfo(root, rules, newMemo())
	if !ok {
		return root, "", false
	}
	return f.plan, f.rule, true
}

// applyFirstInfo is applyFirst plus the step details the debug gate needs.
func applyFirstInfo(root xmas.Op, rules *ruleBook, m *memo) (firedStep, bool) {
	st := &state{root: root, m: m}
	newRoot, name, ren, fired := tryAt(st, root, rules)
	if !fired {
		return firedStep{}, false
	}
	if len(ren) > 0 {
		newRoot = xmas.Rename(newRoot, ren)
	}
	return firedStep{plan: newRoot, rule: name, oldSite: st.oldSite, newSite: st.newSite, ren: ren}, true
}

func tryAt(st *state, op xmas.Op, rules *ruleBook) (xmas.Op, string, map[xmas.Var]xmas.Var, bool) {
	if st.m.quiet[op] {
		return op, "", nil, false
	}
	for _, r := range rules.at(op) {
		if out, ren, ok := r.apply(st, op); ok {
			st.oldSite, st.newSite = op, out
			return out, r.name, ren, true
		}
	}
	// Recurse: nested apply plan first, then inputs in order.
	if a, ok := op.(*xmas.Apply); ok {
		if sub, name, ren, fired := tryAt(st, a.Plan, rules); fired {
			c := *a
			c.Plan = sub
			return &c, name, ren, true
		}
	}
	ins, n := xmas.InputsOf(op)
	for i, in := range ins[:n] {
		if sub, name, ren, fired := tryAt(st, in, rules); fired {
			return xmas.WithInput(op, i, sub), name, ren, true
		}
	}
	st.m.quiet[op] = true
	return op, "", nil, false
}
