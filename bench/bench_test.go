package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// smokeRun runs every workload at smoke scale and returns the results file
// after checking that each result line carries exactly the declared names.
func smokeRun(t *testing.T, spec *benchSpec, trace int) *resultsFile {
	t.Helper()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-seconds", "0.3", "-seed", "7", "-trace", strconv.Itoa(trace), "-out", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, stderr.String())
	}
	var want []string
	for _, d := range spec.metricsFor(trace == 1) {
		want = append(want, d.Name)
	}
	sort.Strings(want)
	lines := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		lines++
		var got struct {
			Correct bool
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		if !got.Correct {
			t.Errorf("trace %d: a workload reported incorrect:\n%s", trace, stderr.String())
		}
		var names []string
		for name := range got.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Errorf("trace %d: printed metrics\n%v\ndeclared in BENCHMARK.json\n%v", trace, names, want)
		}
	}
	if lines != len(spec.Workloads) {
		t.Errorf("trace %d: %d result lines, %d workloads declared", trace, lines, len(spec.Workloads))
	}
	f, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs the whole benchmark small: the names printed are the names
// declared, every answer matches the oracle, replay parity holds, nothing is
// left running, and the counts of two runs of one seed are equal.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	for _, def := range workloads(true) {
		if !declared[def.name] {
			t.Errorf("workload %s is not declared in BENCHMARK.json", def.name)
		}
	}

	a, b := smokeRun(t, spec, 0), smokeRun(t, spec, 0)
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, name := range []string{"tuples_shipped_per_session", "source_queries_per_session"} {
			if ra.Metrics[name] != rb.Metrics[name] || ra.Metrics[name] == 0 {
				t.Errorf("%s %s: %v then %v, want equal and not 0", ra.Workload, name, ra.Metrics[name], rb.Metrics[name])
			}
		}
	}
	if code := compareResults(spec, a, b, &bytes.Buffer{}); code != 0 {
		// Two smoke runs are far too short to agree on timings; only the
		// plumbing is under test here.
		t.Logf("-compare of two smoke runs: exit %d", code)
	}
	smokeRun(t, spec, 1)
}

// TestOracleEqualsNaive checks the reference itself: the default-config
// oracle answers exactly as the un-rewritten, un-pushed evaluation does.
func TestOracleEqualsNaive(t *testing.T) {
	for _, def := range workloads(true) {
		scripts := def.gen(rand.New(rand.NewSource(7)), def.scripts)
		var answers [2][]sample
		for n, naive := range []bool{false, true} {
			sys, err := def.build(params{seed: 7, smoke: true, oracle: true, naive: naive})
			if err != nil {
				t.Fatal(err)
			}
			cl := &localClient{sys: sys}
			for i, sc := range scripts {
				s := cl.run(nil, i, sc)
				if s.err != nil {
					t.Fatalf("%s script %d (naive=%v): %v", def.name, i, naive, s.err)
				}
				answers[n] = append(answers[n], s)
			}
			if err := sys.close(); err != nil {
				t.Error(err)
			}
		}
		for i := range scripts {
			if answers[0][i].hash != answers[1][i].hash || answers[0][i].nodes != answers[1][i].nodes {
				t.Errorf("%s script %d: oracle and naive evaluation differ", def.name, i)
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDecl{Name: "session_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "sessions_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDecl
		a, b, sa, sb float64
		want         string
	}{
		{lower, 10, 10.5, 0.02, 0.02, "same"},
		{lower, 10, 11.5, 0.02, 0.02, "worse"},
		{lower, 10, 8.5, 0.02, 0.02, "better"},
		{higher, 100, 85, 0.02, 0.02, "worse"},
		{higher, 100, 115, 0.02, 0.02, "better"},
		{lower, 10, 11.5, 0.02, 0.12, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v→%v): %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
