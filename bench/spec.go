package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it. The file is the
// single list of names, units and bounds: the benchmark prints exactly the
// declared metrics and -compare judges by the declared bounds.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (the driver runs
// the benchmark from the checkout root) or its parent (go test runs in bench/).
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", firstErr)
}

// metricsFor returns the metrics one run prints: the end-to-end set with
// tracing off, the per-layer set with tracing on.
func (s *benchSpec) metricsFor(trace bool) []metricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}
