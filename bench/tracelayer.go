package main

import (
	"fmt"
	"math"
	"time"
)

// traceLayer is what the traced run measures beyond the counters: client
// spans of a wire pass, an in-process pass of the same scripts, and the
// staged replay of their queries.
type traceLayer struct {
	tr     *tracer
	remote bool
	local  []sample // the scripts in process, sources metered
	drift  float64
	// drifted: the replay's planning stages and the mediator's own planning
	// time disagree by a fifth and by 50 µs a session. Below that floor
	// (plan caches on, or a plan with nothing to rewrite) the state of the
	// processor's caches decides: run a second time, the same stages take
	// 30-50% less.
	drifted bool
	pingUs  float64
	over    float64 // mean session time with spans over the mean without, minus 1
}

// tracedPasses runs scripts 0..M-1 with spans on: the clients' way on the
// warm client, in process with the sources metered, and stage by stage
// through the replayer; then it times bare round trips.
func tracedPasses(def workloadDef, sys system, one client, scripts []script, check func(int, sample), res *result) (*traceLayer, error) {
	tl := &traceLayer{tr: newTracer(def.name), remote: def.remote}
	oracleIdx := func(i int) int {
		if def.writer {
			return -1 // the store has moved on since the oracle's pass
		}
		return i
	}

	// Without a wire the clients' way is the in-process way: one session
	// serves both, run on the metered client.
	lc := &localClient{sys: sys}
	lc.s.meter = meterOf(sys)
	if !def.remote {
		one = lc
	}

	// With a source result cache the second evaluation of a query ships
	// nothing, so there replay parity compares answers only.
	cached := false
	for _, st := range sys.sites() {
		cached = cached || st.cfg.SourceCache > 0
	}
	r := &replayer{meter: lc.s.meter}
	for i := 0; i < writeEvery && i < len(scripts); i++ {
		// Fill the replay's mirrors of the plan caches (rebrowse_writes'
		// hot scripts), as the mediator's own are by now.
		if _, err := sys.replay(r, scripts[i]); err != nil {
			return nil, fmt.Errorf("replay, script %d: %w", i, err)
		}
	}
	r.tr = tl.tr

	// Per script, back to back so that whatever else the host is doing hits
	// all of them alike: the clients' way once with spans and once without,
	// the order alternating (the two means differ by what tracing costs; the
	// count pass is no baseline for that, it ran on a smaller heap, which
	// the collector paces differently); in process with the sources metered;
	// and the staged replay, which must give the answer the mediator just
	// gave and ship what it shipped.
	var logRatios []float64
	for i, sc := range scripts {
		if i%writeEvery == 0 {
			if _, err := sys.write(2000 + i/writeEvery); err != nil {
				return nil, err
			}
		}
		// Which of the pair goes first alternates from script to script and,
		// through the second term, from write to write: the session after a
		// write finds the caches purged.
		tracedPass := (i + i/writeEvery) % 2
		var local, plain sample
		for pass := 0; pass < 2; pass++ {
			if pass == tracedPass {
				local = one.run(tl.tr, i, sc)
				check(oracleIdx(i), local)
			} else {
				plain = one.run(nil, i, sc)
				check(oracleIdx(i), plain)
			}
		}
		logRatios = append(logRatios, math.Log(ratio(us(local.total), us(plain.total))))
		if def.remote {
			local = lc.run(tl.tr, i, sc)
			check(oracleIdx(i), local)
		}
		tl.local = append(tl.local, local)

		r.script = i
		r.root = tl.tr.begin("replay", i, -1)
		answers, err := sys.replay(r, sc)
		tl.tr.end(r.root)
		if err != nil {
			return nil, fmt.Errorf("replay, script %d: %w", i, err)
		}
		for j, a := range answers {
			if a.hash == 0 || local.err != nil {
				continue // not reproduced by the replay, or already booked as failed
			}
			if a.hash != local.marks[j] {
				res.problem("replay parity: script %d answer %d differs from the mediator's", i, j)
			}
			if !cached && a.shipped != local.shipped[j] {
				res.problem("replay parity: script %d answer %d shipped %d tuples, the mediator %d", i, j, a.shipped, local.shipped[j])
			}
		}
	}
	// The geometric mean of the pairs' ratios: whichever of a pair runs
	// second finds warmer caches, and in the logarithm that cancels over the
	// alternating order.
	tl.over = math.Exp(mean(logRatios)) - 1

	// Σ(planning stages) against the time inside the mediator's own
	// Open/Query/QueryFrom calls, per script; the median ratio's distance
	// from 1 is the drift.
	stages := tl.tr.perScript(planStages...)
	plans := tl.tr.perScript(mixOps.open, mixOps.query, mixOps.queryFrom)
	var ratios, gaps []float64
	for i := range scripts {
		ratios = append(ratios, ratio(float64(stages[i]), float64(plans[i])))
		gaps = append(gaps, math.Abs(us(stages[i]-plans[i])))
	}
	tl.drift = math.Abs(median(ratios) - 1)
	tl.drifted = tl.drift >= 0.20 && median(gaps) >= 50

	pings, err := sys.pings(21)
	if err != nil {
		return nil, err
	}
	tl.pingUs = median(pings)
	return tl, nil
}

// metrics fills in the per-layer metrics that come from spans: per-session
// means over the traced passes.
func (tl *traceLayer) metrics(pl map[string]float64, m, countP50Us float64) {
	tot := tl.tr.totals()
	counts := tl.tr.counts
	perSession := func(name string) float64 { return us(tot[name]) / m }

	var localUs []float64
	for _, s := range tl.local {
		localUs = append(localUs, us(s.total))
	}
	var plan time.Duration
	for _, name := range []string{mixOps.open, mixOps.query, mixOps.queryFrom} {
		plan += tot[name]
	}
	pl["mix.plan_us"] = us(plan) / m
	pl["mix.local_session_us"] = median(localUs)
	for _, stage := range append([]string{"engine.first_tuple", "engine.drain", "sqlparse.parse", "sqlexec.exec"}, planStages...) {
		pl[stage+"_us"] = perSession(stage)
	}
	pl["rewrite.rules_fired"] = counts["rewrite.rules_fired"] / m
	pl["sqlgen.queries_pushed"] = counts["sqlgen.queries_pushed"] / m
	pl["engine.answer_nodes"] = counts["engine.answer_nodes"] / m
	pl["engine.tuples_produced"] = counts["engine.tuples_produced"] / m
	pl["engine.tuples_per_answer_node"] = ratio(counts["engine.tuples_produced"], counts["engine.answer_nodes"])
	pl["engine.drain_us_per_node"] = ratio(us(tot["engine.drain"]), counts["engine.answer_nodes"])
	pl["sqlexec.rows_returned"] = counts["sqlexec.rows_returned"] / m
	pl["sqlexec.drain_us_per_row"] = ratio(us(tot["sqlexec.drain"]), counts["sqlexec.rows_returned"])
	pl["qdom.nav_us_per_node"] = ratio(us(tot["qdom.nav"]), counts["qdom.nodes"])
	for _, op := range []string{"open", "down", "right", "queryFrom", "release"} {
		pl["wire.op_us."+op] = perSession("wire.op." + op)
	}
	pl["wire.us_per_round_trip"] = tl.pingUs
	pl["wire.overhead_us"] = 0
	if tl.remote {
		pl["wire.overhead_us"] = countP50Us - median(localUs)
	}
	pl["trace.overhead_frac"] = tl.over
	pl["trace.replay_drift_frac"] = tl.drift
}
