package rewrite_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
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
)

var updateCorpus = flag.Bool("update", false,
	"rewrite testdata/corpus_answers.golden from this run's default-options answers")

// corpusGolden holds one answer hash per executed trial of the 150-plan
// generator corpus (seed 20020208). It was written by the tuple-at-a-time
// scalar interpreter at commit 0a6d8cb, the last one that had it, so the
// deleted implementation keeps judging the surviving one. Serialized
// answers carry no generated ids, so the hashes are stable across runs.
const corpusGolden = "testdata/corpus_answers.golden"

// TestRandomizedPlanEquivalenceVectorized replays the generator corpus at
// several batch-window caps (including 2 and 3, which force mid-batch
// boundaries everywhere) with the dataguide path index off and on. Every
// answer must hash to the frozen reference — the whole contract of the
// window: it may only change how fast bindings move, never which bindings
// move or their order.
func TestRandomizedPlanEquivalenceVectorized(t *testing.T) {
	rng := rand.New(rand.NewSource(20020208))
	const trials = 150
	var configs []engine.Options
	for _, w := range []int{1, 2, 3, 64} {
		configs = append(configs, engine.Options{BatchExec: w}, engine.Options{BatchExec: w, PathIndex: true})
	}
	frozen := map[int]string{}
	if !*updateCorpus {
		frozen = readCorpusGolden(t)
	}
	var executed []int
	for trial := 0; trial < trials; trial++ {
		plan := workload.RandomPlan(rng)
		if err := xmas.Verify(plan); err != nil {
			continue
		}
		opt, _, err := rewrite.Optimize(plan, rewrite.Options{})
		if err != nil {
			t.Fatalf("trial %d: optimize: %v\n%s", trial, err, xmas.Format(plan))
		}
		ref, ok := frozen[trial]
		if *updateCorpus {
			ref = answerHash(serializePlan(t, trial, opt))
			frozen[trial] = ref
		} else if !ok {
			t.Fatalf("trial %d executes but %s has no entry for it; generator changed? (re-freeze with -update)", trial, corpusGolden)
		}
		executed = append(executed, trial)
		for ci, opts := range configs {
			out := serializePlanWith(t, trial, opt, opts)
			if h := answerHash(out); h != ref {
				t.Fatalf("trial %d config %d (%+v): answer hash %s diverged from frozen %s\nplan:\n%s\ngot:\n%s",
					trial, ci, opts, h, ref, xmas.Format(opt), out)
			}
		}
	}
	if len(executed) < 100 {
		t.Fatalf("only %d/%d generated plans executed; generator skew?", len(executed), trials)
	}
	if *updateCorpus {
		writeCorpusGolden(t, executed, frozen)
	} else if len(frozen) != len(executed) {
		t.Fatalf("%s freezes %d trials, %d executed", corpusGolden, len(frozen), len(executed))
	}
}

func answerHash(serialized string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(serialized)))
}

func readCorpusGolden(t *testing.T) map[int]string {
	t.Helper()
	f, err := os.Open(corpusGolden)
	if err != nil {
		t.Fatalf("frozen corpus answers: %v (create with -update)", err)
	}
	defer f.Close()
	want := map[int]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		var trial int
		var hash string
		if _, err := fmt.Sscanf(line, "%d %s", &trial, &hash); err != nil {
			t.Fatalf("%s: bad line %q: %v", corpusGolden, line, err)
		}
		want[trial] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeCorpusGolden(t *testing.T, order []int, got map[int]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# sha256 of the serialized answer per executed trial of workload.RandomPlan, seed 20020208.\n")
	b.WriteString("# First frozen from the scalar interpreter at 0a6d8cb. -update re-freezes from the default-options run:\n")
	b.WriteString("# use it only when the generator changes (go test ./internal/rewrite -run Vectorized -update).\n")
	for _, trial := range order {
		fmt.Fprintf(&b, "%d %s\n", trial, got[trial])
	}
	if err := os.WriteFile(corpusGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func serializePlanWith(t *testing.T, trial int, plan xmas.Op, opts engine.Options) string {
	t.Helper()
	cat, _ := workload.PaperCatalog()
	prog, err := engine.CompileWith(plan, cat, opts)
	if err != nil {
		t.Fatalf("trial %d: compile (%+v): %v\nplan:\n%s", trial, opts, err, xmas.Format(plan))
	}
	res := prog.Run()
	m := res.Materialize()
	if err := res.Err(); err != nil {
		t.Fatalf("trial %d: run (%+v): %v\nplan:\n%s", trial, opts, err, xmas.Format(plan))
	}
	return xmlio.Serialize(m)
}
