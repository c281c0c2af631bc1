// Command bench measures the paper's unit of work — a client opens a virtual
// view, navigates, queries in place, navigates the answer — end to end and
// layer by layer, on four workloads, in one foreground process: every server
// is in-process on net.Pipe, nothing is exec'd, nothing listens. See
// README.md; BENCHMARK.json declares the metrics.
//
//	go run ./bench -workload browse -seed 1 -seconds 12 -trace 0
//	go run ./bench -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// host records where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// resultsFile is what a run writes to <out>/results.json and -compare reads.
type resultsFile struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     int       `json:"trace"`
	Smoke     bool      `json:"smoke"`
	Workloads []*result `json:"workloads"`
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: browse, report, rebrowse_writes, fleet, a comma-separated list, or all")
		seed     = fs.Int64("seed", 1, "seed of the generated data and scripts")
		seconds  = fs.Float64("seconds", 0, "measuring time per workload; 0 takes run_seconds from BENCHMARK.json")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics with spans on")
		smoke    = fs.Bool("smoke", false, "tiny data and script sets, for the smoke test")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		maxWall  = fs.Duration("max-wall", 170*time.Second, "watchdog: a workload still running after this long ends the process with exit code 3")
		outDir   = fs.String("out", filepath.Join("bench", "out"), "directory for results.json and the trace files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}

	var defs []workloadDef
	for _, def := range workloads(*smoke) {
		if *workload == "all" || slices.Contains(strings.Split(*workload, ","), def.name) {
			defs = append(defs, def)
		}
	}
	if len(defs) == 0 || *workload != "all" && len(defs) != len(strings.Split(*workload, ",")) {
		fmt.Fprintf(stderr, "bench: unknown workload in %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}

	out := resultsFile{
		Host: host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit()},
		Seed: *seed, Seconds: *seconds, Trace: *trace, Smoke: *smoke,
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}
	decls := spec.metricsFor(opt.trace)

	// The watchdog makes a hang impossible: it prints what has finished and
	// ends the process.
	var mu sync.Mutex
	ok := true
	for _, def := range defs {
		watchdog := time.AfterFunc(*maxWall, func() {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, "bench: watchdog: %s still running after %v\n", def.name, *maxWall)
			for _, r := range out.Workloads {
				printTable(stderr, r, decls)
			}
			os.Exit(3)
		})
		res, err := runWorkload(def, spec, opt)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
			return 1
		}
		mu.Lock()
		out.Workloads = append(out.Workloads, res)
		mu.Unlock()
		ok = ok && res.Correct
		printTable(stdout, res, decls)
		for _, p := range res.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", def.name, p)
		}
		if err := writeJSON(filepath.Join(*outDir, "results.json"), &out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printLine(stdout, res, decls)
	}
	if !ok {
		return 1
	}
	return 0
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, r *result, decls []metricDecl) {
	fmt.Fprintf(w, "== %s: %d sessions attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	for _, d := range decls {
		fmt.Fprintf(w, "%-34s %16.4f %-6s", d.Name, r.Metrics[d.Name], d.Unit)
		if s, ok := r.Spread[d.Name]; ok {
			fmt.Fprintf(w, "  %s.spread %.3f", d.Name, s)
		}
		fmt.Fprintln(w)
	}
}

// printLine prints the one-line result object the driver reads.
func printLine(w io.Writer, r *result, decls []metricDecl) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range decls {
		line.Metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(w, string(b))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
