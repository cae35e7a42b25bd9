package main

import "encoding/json"

// runSeconds is the length of the timed run the driver asks for. With six
// workloads the driver makes 136 runs inside 3420 s, about 24 s each with
// set-up; 15 s is the longest timed run that leaves a margin, and the
// shortest at which a run's medians repeated within their bounds.
const runSeconds = 15

// The contract's BENCHMARK.json, derived from the tables in metrics.go and
// workloads.go so that the file cannot drift from what the runner prints.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

func benchmarkSpec() spec {
	s := spec{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{d.Name, d.Unit, d.Better, nil})
	}
	return s
}

// specJSON renders BENCHMARK.json; `bash bench/run.sh -spec > BENCHMARK.json`
// rewrites the file after a table changes.
func specJSON() ([]byte, error) {
	data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	return append(data, '\n'), err
}
