package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict judges one end-to-end metric of run b against run a by the
// metric's bound. When either run's own slices disagree by more than the
// bound, the runs cannot resolve a difference that small.
func verdict(d metricDecl, a, b, spreadA, spreadB float64) string {
	if spreadA > d.Bound || spreadB > d.Bound || a == 0 {
		return "unresolved"
	}
	change := (b - a) / a
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > d.Bound:
		return "worse"
	case change < -d.Bound:
		return "better"
	}
	return "same"
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per workload and end-to-end metric present in
// both files, and exits 1 when any row is worse.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	var files [2]*resultsFile
	for i, path := range []string{pathA, pathB} {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	return compareResults(spec, files[0], files[1], stdout)
}

func compareResults(spec *benchSpec, a, b *resultsFile, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-28s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, ra := range a.Workloads {
		for _, rb := range b.Workloads {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, d := range spec.EndToEnd {
				va, okA := ra.Metrics[d.Name]
				vb, okB := rb.Metrics[d.Name]
				if !okA || !okB {
					continue
				}
				v := verdict(d, va, vb, ra.Spread[d.Name], rb.Spread[d.Name])
				if v == "worse" {
					code = 1
				}
				fmt.Fprintf(stdout, "%-16s %-28s %14.4f %14.4f %+7.1f%%  %s\n",
					ra.Workload, d.Name, va, vb, 100*ratio(vb-va, va), v)
			}
		}
	}
	return code
}
