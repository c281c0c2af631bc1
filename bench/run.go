package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mix"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measuring time: the timed pass, or timed+traced passes under -trace 1
	trace   bool
	smoke   bool
	outDir  string
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spread is (max-min)/median over the timed pass's three slices, for the
	// metrics measured per slice.
	Spread map[string]float64 `json:"spread,omitempty"`
	// Problems says why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// writeEvery is the writer's period on rebrowse_writes: one insert batch
// before every 8th session.
const writeEvery = sessionsPerConn

// snapshot is every counter the program keeps, read between passes.
type snapshot struct {
	shipped, queries int64
	wire             wireTotals
	shards           shardTotals
	caches           mix.CacheStats
	mem              runtime.MemStats
}

func takeSnapshot(sys system) snapshot {
	var s snapshot
	for _, st := range sys.sites() {
		t, q := st.shipped()
		s.shipped += t
		s.queries += q
		cs := st.med.CacheStats()
		addLayer(&s.caches.Rewrite, cs.Rewrite)
		addLayer(&s.caches.Compile, cs.Compile)
		addLayer(&s.caches.Source, cs.Source)
	}
	s.wire = sys.wire()
	s.shards = sys.shards()
	runtime.ReadMemStats(&s.mem)
	return s
}

func addLayer(to *mix.LayerStats, l mix.LayerStats) {
	to.Hits += l.Hits
	to.Misses += l.Misses
	to.Evictions += l.Evictions
}

func hitRate(after, before mix.LayerStats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}

// meterOf reads the tuples every store of the system has shipped.
func meterOf(sys system) func() int64 {
	return func() int64 {
		var n int64
		for _, st := range sys.sites() {
			t, _ := st.shipped()
			n += t
		}
		return n
	}
}

// dataVersion sums the mediators' data versions: it moves when a store is
// written.
func dataVersion(sys system) int64 {
	var v int64
	for _, st := range sys.sites() {
		v += st.med.DataVersion()
	}
	return v
}

// computeOracle evaluates every script on the reference system: in process,
// default config, no caches, no shards. On rebrowse_writes it applies the
// count pass's write schedule, so oracle[i] is the answer at the store state
// the count pass sees at script i.
func computeOracle(def workloadDef, scripts []script, opt options) ([]sample, error) {
	sys, err := def.build(params{seed: opt.seed, smoke: opt.smoke, oracle: true})
	if err != nil {
		return nil, err
	}
	cl := &localClient{sys: sys}
	out := make([]sample, len(scripts))
	for i, sc := range scripts {
		if i%writeEvery == 0 {
			if _, err := sys.write(i / writeEvery); err != nil {
				return nil, err
			}
		}
		out[i] = cl.run(nil, i, sc)
		if out[i].err != nil {
			return nil, fmt.Errorf("oracle, script %d: %w", i, out[i].err)
		}
	}
	return out, sys.close()
}

// timedSample is one session of the timed pass with the time it finished.
type timedSample struct {
	sample
	end time.Duration
}

// timedPass runs the closed loop: each client sends its next session only
// when its previous one has finished; scripts cycle. It returns every
// session that finished before the deadline, and the writer's batch times.
func timedPass(sys system, clients []client, scripts []script, dur time.Duration, check func(i int, s sample)) (samples []timedSample, writes []time.Duration) {
	var next atomic.Int64
	perClient := make([][]timedSample, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl client) {
			defer wg.Done()
			for n := 0; time.Since(start) < dur; n++ {
				if ci == 0 && n%writeEvery == 0 {
					// Batch numbers past the count pass's keep row keys unique.
					if d, err := sys.write(1000 + n/writeEvery); err != nil {
						check(-1, sample{err: err})
					} else if d > 0 {
						writes = append(writes, d)
					}
				}
				i := int((next.Add(1) - 1) % int64(len(scripts)))
				s := cl.run(nil, i, scripts[i])
				end := time.Since(start)
				if end > dur {
					return
				}
				perClient[ci] = append(perClient[ci], timedSample{s, end})
			}
		}(ci, cl)
	}
	wg.Wait()
	for _, ss := range perClient {
		for _, s := range ss {
			check(s.script, s.sample)
		}
		samples = append(samples, ss...)
	}
	return samples, writes
}

// sliceStats reduces the timed pass to one value per slice and metric.
type sliceStats struct {
	perS, sessionMs, firstMs, navUs []float64
}

const timedSlices = 3

func reduceSlices(samples []timedSample, dur time.Duration) sliceStats {
	var st sliceStats
	width := dur / timedSlices
	for k := 0; k < timedSlices; k++ {
		var total, first, nav []float64
		var firstEnd, lastEnd time.Duration
		for _, s := range samples {
			if min(int(s.end/width), timedSlices-1) != k {
				continue
			}
			if len(total) == 0 || s.end < firstEnd {
				firstEnd = s.end
			}
			if s.end > lastEnd {
				lastEnd = s.end
			}
			total = append(total, msec(s.total))
			first = append(first, msec(s.first))
			nav = append(nav, ratio(us(s.nav), float64(s.nodes)))
		}
		// Completions per second between the slice's first and last one: a
		// count over the fixed slice width would move in steps of 1/width.
		st.perS = append(st.perS, ratio(float64(len(total)-1), (lastEnd-firstEnd).Seconds()))
		st.sessionMs = append(st.sessionMs, median(total))
		st.firstMs = append(st.firstMs, mean(first))
		st.navUs = append(st.navUs, median(nav))
	}
	return st
}

// heapSampler records the peak of HeapAlloc every 50 ms until stopped.
func heapSampler() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var max uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// goroutinesBackTo polls until the goroutine count is back at the baseline.
func goroutinesBackTo(baseline int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// measured is everything one run observed, before it is reduced to metrics.
type measured struct {
	m                        float64 // scripts in the count pass
	setups                   []float64
	oracleS                  float64
	before, after            snapshot // around the count pass
	counted                  []sample
	purges                   int
	countWrites, timedWrites []time.Duration
	timed                    []timedSample
	dur                      time.Duration
	gcBefore, gcAfter        runtime.MemStats // around the timed pass
	heapPeak                 uint64
	sessionsPeak             int64
	liveHandles              int
	goroutinesEnd            int
	heapLive                 uint64
}

// runWorkload is the run shape every workload shares: set-up, oracle,
// warm-up, count pass, timed pass, (traced passes,) teardown.
func runWorkload(def workloadDef, spec *benchSpec, opt options) (*result, error) {
	res := &result{Workload: def.name, Metrics: map[string]float64{}, Spread: map[string]float64{}}
	scripts := def.gen(rand.New(rand.NewSource(opt.seed)), def.scripts)
	ms := measured{m: float64(len(scripts))}
	goroutines := runtime.NumGoroutine()

	// Set-up into throw-away instances, at least five times and for half a
	// second (a set-up takes milliseconds, so five alone would be a noisy
	// median); the last one is kept. The traced run does not report setup_s
	// and builds once.
	var sys system
	minSetup := 500 * time.Millisecond
	if opt.smoke {
		minSetup = 0
	}
	for begun := time.Now(); sys == nil || !opt.trace && (len(ms.setups) < 5 || time.Since(begun) < minSetup); {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if sys, err = def.build(params{seed: opt.seed, smoke: opt.smoke}); err != nil {
			return nil, err
		}
		ms.setups = append(ms.setups, time.Since(t).Seconds())
	}

	t := time.Now()
	oracle, err := computeOracle(def, scripts, opt)
	if err != nil {
		return nil, err
	}
	ms.oracleS = time.Since(t).Seconds()

	// check books one session: an error or an answer that differs from the
	// oracle's is a failure. i < 0 skips the comparison.
	var mu sync.Mutex
	check := func(i int, s sample) {
		mu.Lock()
		defer mu.Unlock()
		res.Attempted++
		switch {
		case s.err != nil:
			res.Failed++
			res.problem("script %d: %v", s.script, s.err)
		case i >= 0 && s.hash != oracle[i].hash:
			res.Failed++
			res.problem("script %d: answer differs from the oracle's", i)
		}
	}

	clients := make([]client, def.clients)
	for i := range clients {
		clients[i] = sys.newClient(i)
	}
	one := clients[0]

	for i := 0; i < def.warmup; i++ {
		one.run(nil, i%len(scripts), scripts[i%len(scripts)])
	}

	// Count pass: one client, scripts 0..M-1, the program's own counters read
	// before and after. Single-client and seeded, so the counts repeat.
	version := dataVersion(sys)
	ms.before = takeSnapshot(sys)
	for i, sc := range scripts {
		if i%writeEvery == 0 {
			d, err := sys.write(i / writeEvery)
			if err != nil {
				return nil, err
			}
			if d > 0 {
				ms.countWrites = append(ms.countWrites, d)
			}
		}
		if v := dataVersion(sys); v != version {
			ms.purges, version = ms.purges+1, v
		}
		s := one.run(nil, i, sc)
		check(i, s)
		ms.counted = append(ms.counted, s)
	}
	ms.after = takeSnapshot(sys)

	// Timed pass. A writer races the readers on rebrowse_writes, so there the
	// oracle comparison stays in the count pass.
	ms.dur = time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		ms.dur /= 2
	}
	timedCheck := check
	if def.writer {
		timedCheck = func(_ int, s sample) { check(-1, s) }
	}
	var stopSampler func() uint64
	if opt.trace {
		stopSampler = heapSampler()
	}
	runtime.ReadMemStats(&ms.gcBefore)
	ms.timed, ms.timedWrites = timedPass(sys, clients, scripts, ms.dur, timedCheck)
	runtime.ReadMemStats(&ms.gcAfter)
	if opt.trace {
		ms.heapPeak = stopSampler()
	}
	if len(ms.timed) < timedSlices {
		return nil, fmt.Errorf("%s: only %d sessions finished in %v", def.name, len(ms.timed), ms.dur)
	}

	var tl *traceLayer
	if opt.trace {
		if tl, err = tracedPasses(def, sys, one, scripts, check, res); err != nil {
			return nil, err
		}
		if tl.drifted && !opt.smoke {
			res.problem("replay parity: planning stages drift %.2f from the mediator's planning time", tl.drift)
		}
		if err := tl.tr.write(filepath.Join(opt.outDir, "trace-"+def.name+".jsonl")); err != nil {
			return nil, err
		}
	}

	// Teardown: close everything, then see what is left.
	for _, cl := range clients {
		cl.close()
	}
	if err := sys.close(); err != nil {
		res.problem("teardown: %v", err)
	}
	if srv := sys.server(); srv != nil {
		ms.sessionsPeak = srv.SessionStats().Peak
		ms.liveHandles = srv.LiveHandles()
	}
	var ok bool
	if ms.goroutinesEnd, ok = goroutinesBackTo(goroutines); !ok {
		res.problem("teardown: %d goroutines, %d before the run", ms.goroutinesEnd, goroutines)
	}
	runtime.GC()
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	ms.heapLive = end.HeapAlloc
	runtime.KeepAlive(sys) // heap_live_mb counts the sources and caches

	if opt.trace {
		res.Metrics = ms.perLayer(tl)
	} else {
		ms.endToEnd(res)
	}

	// Exactly the declared metrics, each a finite number.
	declared := spec.metricsFor(opt.trace)
	for _, d := range declared {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s: not measured (%v)", d.Name, v)
		}
	}
	for name := range res.Metrics {
		if !slices.ContainsFunc(declared, func(d metricDecl) bool { return d.Name == name }) {
			res.problem("metric %s is printed but not declared in BENCHMARK.json", name)
		}
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res, nil
}

// endToEnd reduces the run to the end-to-end metrics: timings from the timed
// pass's slices, counts from the count pass.
func (ms *measured) endToEnd(res *result) {
	ss := reduceSlices(ms.timed, ms.dur)
	for name, vs := range map[string][]float64{
		"sessions_per_s":       ss.perS,
		"session_p50_ms":       ss.sessionMs,
		"first_answer_mean_ms": ss.firstMs,
		"nav_us_per_node":      ss.navUs,
	} {
		res.Metrics[name] = median(vs)
		res.Spread[name] = spread(vs)
	}
	before, after := &ms.before, &ms.after
	res.Metrics["setup_s"] = median(ms.setups)
	res.Metrics["tuples_shipped_per_session"] = float64(after.shipped-before.shipped) / ms.m
	res.Metrics["source_queries_per_session"] = float64(after.queries-before.queries) / ms.m
	res.Metrics["allocs_per_session"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ms.m
	res.Metrics["alloc_kb_per_session"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ms.m
	res.Metrics["heap_live_mb"] = float64(ms.heapLive) / (1 << 20)
}

// perLayer reduces the run to the per-layer metrics: the program's counters
// over the count pass, the clients' tails over the timed pass, and what the
// traced passes measured. A metric that does not apply to a workload is 0.
func (ms *measured) perLayer(tl *traceLayer) map[string]float64 {
	m, before, after := ms.m, &ms.before, &ms.after
	w := after.wire.minus(before.wire)
	var nodes float64
	var countUs []float64
	for _, s := range ms.counted {
		nodes += float64(s.nodes)
		countUs = append(countUs, us(s.total))
	}
	var sessionMs, firstMs, inplaceMs []float64
	for _, s := range ms.timed {
		sessionMs = append(sessionMs, msec(s.total))
		firstMs = append(firstMs, msec(s.first))
		inplaceMs = append(inplaceMs, msec(s.inplace))
	}
	var insertUs, batchUs []float64
	for _, d := range ms.countWrites {
		insertUs = append(insertUs, us(d)/writeBatch)
	}
	for _, d := range ms.timedWrites {
		batchUs = append(batchUs, us(d))
	}
	sh, sh0 := after.shards, before.shards
	memberRTs := []float64{0} // per member and session; a lone 0 without members
	for i, n := range sh.memberRoundTrips {
		memberRTs = append(memberRTs[:i], float64(n-sh0.memberRoundTrips[i])/m)
	}
	pl := map[string]float64{
		"relstore.tuples_shipped":          float64(after.shipped-before.shipped) / m,
		"relstore.queries_received":        float64(after.queries-before.queries) / m,
		"relstore.shipped_per_answer_node": ratio(float64(after.shipped-before.shipped), nodes),
		"relstore.insert_us_per_row":       mean(insertUs),
		"relstore.write_batch_p50_us":      median(batchUs),
		"source.resultcache_hit_rate":      hitRate(after.caches.Source, before.caches.Source),
		"source.resultcache_evictions":     float64(after.caches.Source.Evictions - before.caches.Source.Evictions),
		"engine.plancache_hit_rate":        hitRate(after.caches.Compile, before.caches.Compile),
		"rewrite.cache_hit_rate":           hitRate(after.caches.Rewrite, before.caches.Rewrite),
		"wire.nodecache_hit_rate":          ratio(float64(w.ncHits), float64(w.ncHits+w.ncMisses)),
		"wire.nodecache_validations":       float64(w.ncValidated) / m,
		"cache.purges":                     float64(ms.purges),
		"wire.round_trips":                 float64(w.requests) / m,
		"wire.batches_fetched":             float64(w.batches) / m,
		"wire.frames_per_batch":            ratio(float64(w.frames), float64(w.batches)),
		"wire.bytes_sent":                  float64(w.sent) / m,
		"wire.bytes_recv":                  float64(w.recv) / m,
		"wire.sessions_peak":               float64(ms.sessionsPeak),
		"wire.busy_retries":                float64(w.busy),
		"wire.redials":                     float64(w.redials),
		"wire.live_handles_end":            float64(ms.liveHandles),
		"shard.scans":                      float64(sh.scans-sh0.scans) / m,
		"shard.pruned":                     float64(sh.pruned-sh0.pruned) / m,
		"shard.members_per_point_query":    ratio(float64(sh.pointMembers-sh0.pointMembers), float64(sh.pointQueries-sh0.pointQueries)),
		"shard.member_round_trips_max":     slices.Max(memberRTs),
		"shard.member_round_trips_min":     slices.Min(memberRTs),
		"go.gc_cycles":                     float64(ms.gcAfter.NumGC - ms.gcBefore.NumGC),
		"go.gc_pause_us":                   float64(ms.gcAfter.PauseTotalNs-ms.gcBefore.PauseTotalNs) / 1e3,
		"go.heap_peak_mb":                  float64(ms.heapPeak) / (1 << 20),
		"go.goroutines_end":                float64(ms.goroutinesEnd),
		"client.session_p99_ms":            quantile(sessionMs, 0.99),
		"client.session_max_ms":            quantile(sessionMs, 1),
		"client.first_answer_p99_ms":       quantile(firstMs, 0.99),
		"client.inplace_p50_ms":            median(inplaceMs),
		"client.samples":                   float64(len(ms.timed)),
		"bench.oracle_s":                   ms.oracleS,
	}
	for _, op := range []string{"open", "children", "scan", "queryFrom"} {
		pl["wire.bytes."+op] = float64(w.opBytes[op]) / m
	}
	tl.metrics(pl, m, median(countUs))
	return pl
}
