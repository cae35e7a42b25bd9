package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	sip "repro"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// 100 samples leave exactly ten beyond the 90th percentile.
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", Parent: -1, Start: 0, End: 100},
		{Name: "parse", Parent: 0, Start: 5, End: 25},
		{Name: "execute", Parent: 0, Start: 30, End: 90},
		{Name: "first_row", Parent: 2, Start: 30, End: 70},
		{Name: "query", Query: 1, Parent: -1, Start: 100, End: 150},
		{Name: "parse", Query: 1, Parent: 4, Start: 100, End: 110},
	}
	want := map[string]int64{
		"query":     (100 - 20 - 60) + (50 - 10),
		"parse":     20 + 10,
		"execute":   60 - 40,
		"first_row": 40,
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var total int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
		total += got[name]
	}
	// Self times partition the top-level spans: nothing is counted twice.
	if total != 150 {
		t.Errorf("self times sum to %d, want the 150 ns the two queries took", total)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, -1)
	r.count(id, "rows", 1)
	r.end(id)
	if id != -1 {
		t.Errorf("nil recorder returned span %d, want -1", id)
	}
}

// TestStreamConstantsShareOneAnswer pins the stream workload's one reference
// answer: every constant the generator can draw selects the same rows. The
// constant 24.0000 does not (it drops quantity 24), and drawing it once in
// 10 000 queries failed a run.
func TestStreamConstantsShareOneAnswer(t *testing.T) {
	w, err := workloadByName("stream_wire")
	if err != nil {
		t.Fatal(err)
	}
	cat := sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.01, Seed: defaultDataSeed})
	eng := sip.NewEngine(cat)
	ctx := context.Background()
	want, err := reference(ctx, eng, newGenerator(w, cat, 1).distinct()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{1, numStreamConstants} {
		got, err := reference(ctx, eng, streamRequest(c))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("constant %d: answer %+v, reference %+v", c, got, want)
		}
	}
	g := newGenerator(w, cat, 3000) // seed 3's lane 0 drew 24.0000 at query 57
	for i := 0; i < 20000; i++ {
		if r := g.next(i); r.sql == streamRequest(0).sql || r.sql == streamRequest(numStreamConstants+1).sql {
			t.Fatalf("query %d drew a constant outside the range: %s", i, r.sql)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesContract holds BENCHMARK.json to the runner's tables and
// the tables to the contract's limits.
func TestSpecMatchesContract(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the runner's tables; rewrite it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}

	s := benchmarkSpec()
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range s.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// TestSmoke runs all six workloads end to end at SF 0.01 with 200 ms timed
// runs, timed and traced: every metric of the contract must appear exactly
// once with its unit, no query may fail, and the trace file must parse with
// its parent links intact. The traced run covers one round of each workload
// to keep the package's tests short.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := runConfig{workload: w.name, seed: 7, dur: 200 * time.Millisecond, trace: trace, outDir: out, dataSeed: defaultDataSeed, sf: 0.01, setups: 1, traceQueries: len(w.round)}
				res, env, err := runWorkload(context.Background(), cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if env.NProc < 1 || env.GoVersion == "" || env.SF != 0.01 || env.Conns != w.conns {
					t.Errorf("environment is incomplete: %+v", env)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s missing or in unit %q, want %q", trace, d.Name, v.Unit, d.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v.Value)
					}
				}
				if trace && res.Metrics["bench.failed_share"].Value != 0 {
					t.Errorf("failed share %v", res.Metrics["bench.failed_share"].Value)
				}
				// The line the driver parses carries exactly these keys.
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var keys map[string]json.RawMessage
				if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
					t.Errorf("result line has keys %v", keys)
				}
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+w.name+".json"), w.name, len(w.round))
		})
	}
}

func checkTraceFile(t *testing.T, path, workload string, queries int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace file does not parse: %v", err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("trace of %q with %d spans", tf.Workload, len(tf.Spans))
	}
	roots := 0
	for i, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			roots++
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d (%s) has parent %d, which is not an earlier span", i, s.Name, s.Parent)
		}
		p := tf.Spans[s.Parent]
		if p.Query != s.Query || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
		}
	}
	if roots != queries {
		t.Errorf("%d traced queries, want %d", roots, queries)
	}
	for _, name := range []string{"sqlparser.normalize", "sqlparser.parse", "plan.bind", "optimizer.build", "optimizer.instantiate", "sip.execute", "sip.adhoc", "server.wire"} {
		if _, ok := tf.SelfNS[name]; !ok {
			t.Errorf("no self time for layer %s", name)
		}
	}
}
