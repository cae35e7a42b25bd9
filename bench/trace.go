package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one query share its id;
// Parent is the index of the enclosing span in the recorder, -1 at the top.
type span struct {
	Name   string           `json:"name"`
	Query  int              `json:"query"`
	Parent int              `json:"parent"`
	Start  int64            `json:"start_ns"` // since the recorder's epoch
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine. A nil recorder records nothing, which is how the untraced twin
// of the traced loop runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index, -1 when not recording.
func (r *recorder) begin(name string, query, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Query: query, Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes the span.
func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// count attaches a count to the span, at the boundary where it was made.
func (r *recorder) count(id int, key string, v int64) {
	if r == nil || id < 0 {
		return
	}
	if r.spans[id].Counts == nil {
		r.spans[id].Counts = map[string]int64{}
	}
	r.spans[id].Counts[key] = v
}

// selfTimes totals, per span name, each span's duration minus the part its
// children cover. Children of one span run one after another here, so the
// covered part is the sum of their durations.
func selfTimes(spans []span) map[string]int64 {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - children[i]
	}
	return self
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNS   map[string]int64 `json:"self_ns"`
	Spans    []span           `json:"spans"`
}

func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfNS: selfTimes(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
