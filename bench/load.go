package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// sample is one query as its caller saw it.
type sample struct {
	latency  time.Duration // request frame written → Done frame read
	firstRow time.Duration // request frame written → first row decoded
	rows     int
	state    int64 // Summary.PeakStateBytes
	spill    int64 // Summary.SpillBytes
	evicts   int64 // Summary.SpillEvents
}

// do sends one request on the lane and reads the whole response. The clock
// stops when the Done frame has been read; verification comes after. With
// full the rows are kept and hashed against the reference, otherwise only
// their count is checked.
func (ln *lane) do(ctx context.Context, r request, refs map[string]answer, full bool) (sample, error) {
	var s sample
	want, ok := refs[r.ref]
	if !ok {
		return s, fmt.Errorf("no reference answer for %s", r.ref)
	}
	ln.rows = ln.rows[:0]
	cl := ln.conns[r.cell.strategy].cl
	t0 := time.Now()
	rows, err := cl.Query(ctx, r.sql)
	if err != nil {
		return s, err
	}
	for rows.Next() {
		if s.rows == 0 {
			s.firstRow = time.Since(t0)
		}
		s.rows++
		if full {
			ln.rows = append(ln.rows, rows.Row())
		}
	}
	s.latency = time.Since(t0)
	if err := rows.Err(); err != nil {
		return s, err
	}
	sum := rows.Summary()
	if sum == nil {
		return s, fmt.Errorf("%s: stream ended without a summary", r.ref)
	}
	s.state, s.spill, s.evicts = sum.PeakStateBytes, sum.SpillBytes, sum.SpillEvents
	if s.rows != want.rows {
		return s, fmt.Errorf("%s under %s: %d rows, reference has %d", r.ref, r.cell.strategy, s.rows, want.rows)
	}
	if full {
		var h rowHasher
		for _, row := range ln.rows {
			h.add(row)
		}
		if h.a != want {
			return s, fmt.Errorf("%s under %s: rows differ from the reference", r.ref, r.cell.strategy)
		}
	}
	return s, nil
}

// runSpec bounds one closed-loop run. A lane stops at the first round
// boundary at which it has run `rounds` rounds (when positive) or `dur` has
// passed (when positive); with neither set it runs one round.
type runSpec struct {
	rounds int
	dur    time.Duration
	// full hashes every response even on a countOnly workload.
	full bool
}

// runResult merges what every lane saw.
type runResult struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	// what the client connections moved during the run
	bytes, reads int64
}

// run drives every lane through one closed-loop run and merges the
// results. Errors and wrong answers are counted, not fatal: the caller
// decides what a failed share means.
func (f *fixture) run(ctx context.Context, spec runSpec) runResult {
	if spec.rounds <= 0 && spec.dur <= 0 {
		spec.rounds = 1
	}
	before := f.wireCounters()
	per := make([]runResult, len(f.lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ln := range f.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &per[i]
			n := len(f.w.round)
			for done := 0; ; done++ {
				if done%n == 0 && done > 0 {
					if (spec.rounds > 0 && done/n >= spec.rounds) || (spec.dur > 0 && time.Since(start) >= spec.dur) {
						break
					}
				}
				r := ln.gen.next(ln.i)
				ln.i++
				s, err := ln.do(ctx, r, f.refs, spec.full || !f.w.countOnly)
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					if ctx.Err() != nil {
						break
					}
					continue
				}
				res.samples = append(res.samples, s)
			}
			res.wall = time.Since(start)
		}()
	}
	wg.Wait()
	var out runResult
	for _, r := range per {
		out.samples = append(out.samples, r.samples...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		if r.wall > out.wall {
			out.wall = r.wall
		}
	}
	after := f.wireCounters()
	out.bytes = after.bytes - before.bytes
	out.reads = after.reads - before.reads
	return out
}

type wireCount struct{ bytes, reads int64 }

// wireCounters totals the lanes' connection counters; call it only while no
// lane is running.
func (f *fixture) wireCounters() wireCount {
	var c wireCount
	for _, ln := range f.lanes {
		for _, wc := range ln.conns {
			c.bytes += wc.cc.read + wc.cc.written
			c.reads += wc.cc.reads
		}
	}
	return c
}

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted values by
// the nearest-rank rule: the smallest value with at least p% of the sample
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the 50th percentile of the values, which it sorts.
func median(v []float64) float64 {
	sort.Float64s(v)
	return percentile(v, 50)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rssSampler polls the process's resident set while a run is under way and
// keeps the highest reading. VmHWM would also cover the set-up repeats that
// precede the timed run, so the peak is sampled instead.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if v := readRSS(); v > s.peak {
				s.peak = v
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// peakBytes stops the sampler and returns the highest reading.
func (s *rssSampler) peakBytes() int64 {
	close(s.stop)
	<-s.done
	return s.peak
}

// readRSS returns VmRSS from /proc/self/status in bytes, 0 when unreadable.
func readRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	const key = "VmRSS:"
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return 0
	}
	fields := bytes.Fields(data[i+len(key):])
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}

// endToEndMetrics reduces a timed run to the end-to-end metric set.
func endToEndMetrics(res runResult, setupS float64, rssPeak int64) metricSet {
	lat := make([]float64, len(res.samples))
	var stateMB float64
	ok := float64(len(res.samples))
	for i, s := range res.samples {
		lat[i] = msOf(s.latency)
		stateMB += float64(s.state) / 1e6 / ok
	}
	sort.Float64s(lat)
	m := metricSet{
		"setup_s":       setupS,
		"queries_per_s": ok / res.wall.Seconds(),
		"query_p50_ms":  percentile(lat, 50),
		"query_p90_ms":  percentile(lat, 90),
		// The mean, not the median: in tableI_mix's mix of 20 cells the
		// median lands on the one cell whose state moves with filter timing.
		"peak_state_mb": stateMB,
		"rss_peak_mb":   float64(rssPeak) / 1e6,
		// failed queries moved bytes too, so the divisor is every attempt
		"wire_bytes_per_query": float64(res.bytes) / float64(res.attempted),
	}
	// Plans that hold no operator state (point lookups, the plain scan)
	// report 0 bytes; the contract's metrics may never be 0, so they read
	// the floor of 1 kB instead.
	if m["peak_state_mb"] < stateFloorMB {
		m["peak_state_mb"] = stateFloorMB
	}
	return m
}

const stateFloorMB = 0.001
