package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Spans are recorded from bench/ around
// the public call; spans inside the engine are ROADMAP item 2.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Script   int    `json:"script"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans and layer counts in memory until the run ends. A nil
// tracer records nothing and reads no clock, so the untraced passes pay one
// nil check per call. It is used from one goroutine: the traced pass runs a
// single client.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	counts   map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, script, parent int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Script: script,
		StartNs: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.t0))
}

// count adds v to a layer's work counter (rules fired, rows returned, ...).
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// totals sums span durations by name.
func (t *tracer) totals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNs - s.StartNs)
	}
	return out
}

// perScript sums the durations of the spans with one of the names, by script.
func (t *tracer) perScript(names ...string) map[int]time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[int]time.Duration{}
	for _, s := range t.spans {
		if want[s.Name] {
			out[s.Script] += time.Duration(s.EndNs - s.StartNs)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
