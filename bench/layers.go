package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	sip "repro"
	"repro/internal/bloom"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/magic"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// options are the in-process twin of what the wire sessions run under: the
// cell's strategy, plus the spill workload's budget.
func (f *fixture) options(c cell) sip.Options {
	return sip.Options{Strategy: c.strategy, MemBudget: f.budget}
}

// parameterize lifts the request's literals the way the engine's ad-hoc
// path does (sqlparser.Normalize, then typed arguments), so one prepared
// statement serves every literal. ok is false when the text has nothing to
// lift.
func parameterize(sql string) (norm string, args []sip.Value, ok bool) {
	norm, lits, ok := sqlparser.Normalize(sql)
	if !ok {
		return "", nil, false
	}
	args = make([]sip.Value, len(lits))
	for i, l := range lits {
		switch l.Kind {
		case sqlparser.LitInt:
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err != nil {
				return "", nil, false
			}
			args[i] = sip.Int(n)
		case sqlparser.LitFloat:
			x, err := strconv.ParseFloat(l.Text, 64)
			if err != nil {
				return "", nil, false
			}
			args[i] = sip.Float(x)
		default:
			args[i] = sip.Str(l.Text)
		}
	}
	return norm, args, true
}

// layerRun is what one pass of the layer loop measured, one entry per query.
type layerRun struct {
	cells    []cell
	total    []time.Duration // the whole sequence, front end to wire
	exec     []time.Duration // Stmt.QueryStream → drained
	adhoc    []time.Duration // Engine.QueryStream with the text → drained
	firstRow []time.Duration // Stmt.QueryStream → first row
	wire     []sample
	results  []*sip.Result
}

// layerLoop executes 2n requests, alternating round by round between a
// traced pass (spans on rec) and an untraced one, so that the two see the
// same heap and cache state and differ only by the tracing. The timings
// reported come from the untraced queries, the spans from the traced ones.
func (f *fixture) layerLoop(ctx context.Context, rec *recorder, n int) (traced, plain *layerRun, err error) {
	traced, plain = &layerRun{}, &layerRun{}
	stmts := map[string]*sip.Stmt{}
	for q := 0; q < 2*n; q++ {
		if (q/len(f.w.round))%2 == 0 {
			err = f.layerQuery(ctx, rec, q, stmts, traced)
		} else {
			err = f.layerQuery(ctx, nil, q, stmts, plain)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return traced, plain, nil
}

// layerQuery executes one request, issuing the layer calls itself in order:
// Normalize → Parse → Bind → magic.Rewrite → optimizer.Build → Instantiate
// → Stmt.QueryStream/drain → Engine.QueryStream with the text → the same
// text over the wire. The last three run side by side so that their medians
// are comparable (server.tax_ms is the difference of two). Each call is
// wrapped in a span on rec; with a nil rec the same code runs untraced.
// magic.Rewrite runs on every query so that its cost is known on every
// workload; its result feeds Build only under Magic, as in the engine.
func (f *fixture) layerQuery(ctx context.Context, rec *recorder, q int, stmts map[string]*sip.Stmt, run *layerRun) error {
	ln := f.lanes[0]
	r := ln.gen.next(ln.i)
	ln.i++
	t0 := time.Now()
	root := rec.begin("query", q, -1)

	s := rec.begin("sqlparser.normalize", q, root)
	text, args, ok := parameterize(r.sql)
	rec.end(s)
	if !ok {
		text, args = r.sql, nil
	}

	s = rec.begin("sqlparser.parse", q, root)
	stmt, err := sqlparser.Parse(text)
	rec.end(s)
	var blk *plan.Block
	if err == nil {
		s = rec.begin("plan.bind", q, root)
		blk, err = plan.Bind(f.cat, stmt)
		rec.end(s)
	}
	if err != nil || blk.NumParams != len(args) {
		// A literal sits where a parameter is not allowed: plan the
		// original text, as the engine's ad-hoc path falls back to.
		text, args = r.sql, nil
		if blk, err = plan.BindSQL(f.cat, text); err != nil {
			return err
		}
	}

	s = rec.begin("magic.rewrite", q, root)
	rewritten := magic.Rewrite(blk)
	rec.end(s)
	if r.cell.strategy == sip.Magic {
		blk = rewritten
	}

	s = rec.begin("optimizer.build", q, root)
	built, err := optimizer.Build(optimizer.Config{}, blk)
	rec.end(s)
	if err != nil {
		return err
	}

	s = rec.begin("optimizer.instantiate", q, root)
	_, err = built.Instantiate(args)
	rec.end(s)
	if err != nil {
		return err
	}

	key := r.cell.strategy.String() + "\x00" + text
	st := stmts[key]
	if st == nil {
		if st, err = f.eng.PrepareWithOptions(ctx, text, f.options(r.cell)); err != nil {
			return err
		}
		stmts[key] = st
	}
	ex := rec.begin("sip.execute", q, root)
	t1 := time.Now()
	rows, err := st.QueryStream(ctx, args...)
	if err != nil {
		return err
	}
	fr := rec.begin("sip.first_row", q, ex)
	got := 0
	if rows.Next() {
		got++
	}
	first := time.Since(t1)
	rec.end(fr)
	for rows.Next() {
		got++
	}
	execDur := time.Since(t1)
	rec.end(ex)
	if err := rows.Err(); err != nil {
		return err
	}
	res := rows.Result()
	if want := f.refs[r.ref].rows; got != want {
		return fmt.Errorf("%s in process: %d rows, reference has %d", r.ref, got, want)
	}
	rec.count(ex, "rows", int64(got))
	rec.count(ex, "tuples_scanned", res.TuplesScanned)
	rec.count(ex, "tuples_pruned", res.TuplesPruned)
	rec.count(ex, "peak_state_bytes", res.PeakStateBytes)

	ad := rec.begin("sip.adhoc", q, root)
	t2 := time.Now()
	adhocRows, err := f.eng.QueryStream(ctx, r.sql, f.options(r.cell))
	if err != nil {
		return err
	}
	for adhocRows.Next() {
	}
	adhocDur := time.Since(t2)
	rec.end(ad)
	if err := adhocRows.Err(); err != nil {
		return err
	}

	before := f.wireCounters()
	wr := rec.begin("server.wire", q, root)
	ws, err := ln.do(ctx, r, f.refs, true)
	rec.end(wr)
	if err != nil {
		return err
	}
	rec.count(wr, "rows", int64(ws.rows))
	rec.count(wr, "bytes", f.wireCounters().bytes-before.bytes)
	rec.count(wr, "first_row_ns", int64(ws.firstRow))

	rec.end(root)
	run.cells = append(run.cells, r.cell)
	run.total = append(run.total, time.Since(t0))
	run.exec = append(run.exec, execDur)
	run.adhoc = append(run.adhoc, adhocDur)
	run.firstRow = append(run.firstRow, first)
	run.wire = append(run.wire, ws)
	run.results = append(run.results, res)
	return nil
}

func durMedianMS(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = msOf(x)
	}
	return median(v)
}

// layerReport is what the traced invocation produces; attempted and failed
// count the queries of its run over the wire.
type layerReport struct {
	metrics           metricSet
	spans             []span
	attempted, failed int
}

// shortRun is how long the traced invocation's untraced wire run lasts at
// most; it feeds the counters that only a run through the servers moves.
const shortRun = 2 * time.Second

// perLayerMetrics runs the traced side of a workload: a short untraced run
// over the wire for the server and plan-cache counters, the layer loop with
// and without spans, an ad-hoc in-process loop, and the kernel loops on the
// workload's own data. short bounds the wire run and n is the number of
// queries the layer loop traces (it runs as many again untraced).
func perLayerMetrics(ctx context.Context, f *fixture, loadavg float64, short time.Duration, n int) (*layerReport, error) {
	m := metricSet{}
	for _, d := range perLayer {
		m[d.Name] = 0 // a metric that does not apply to this workload reads 0
	}
	m["tpch.generate_s"] = f.times.generate.Seconds()
	m["sip.reference_s"] = f.times.reference.Seconds()
	m["sip.warmup_s"] = f.times.warmup.Seconds()
	m["bench.loadavg_start"] = loadavg

	// Counters of the serving tier and the plan cache, over a wire run.
	pc0 := f.eng.PlanCacheStats()
	ok0, err0 := f.serverCounts()
	wire := f.run(ctx, runSpec{dur: short})
	pc1 := f.eng.PlanCacheStats()
	ok1, err1 := f.serverCounts()
	if lookups := (pc1.Hits - pc0.Hits) + (pc1.Misses - pc0.Misses); lookups > 0 {
		m["sip.plancache_hit_ratio"] = float64(pc1.Hits-pc0.Hits) / float64(lookups)
	}
	m["server.queries_ok"] = float64(ok1 - ok0)
	m["server.queries_err"] = float64(err1 - err0)
	m["bench.samples"] = float64(len(wire.samples))
	m["bench.failed_share"] = float64(wire.failed) / float64(wire.attempted)
	var rows int64
	for _, s := range wire.samples {
		rows += int64(s.rows)
		m["spill.bytes_per_query"] += float64(s.spill) / float64(len(wire.samples))
		m["spill.events_per_query"] += float64(s.evicts) / float64(len(wire.samples))
	}
	if rows > 0 {
		m["server.bytes_per_row"] = float64(wire.bytes) / float64(rows)
	}
	m["server.reads_per_query"] = float64(wire.reads) / float64(wire.attempted)

	rec := newRecorder()
	traced, plain, err := f.layerLoop(ctx, rec, n)
	if err != nil {
		return nil, err
	}
	m["bench.trace_overhead_share"] = durMedianMS(traced.total)/durMedianMS(plain.total) - 1
	spanNS := map[string]int64{}
	for _, s := range rec.spans {
		spanNS[s.Name] += s.End - s.Start
	}
	m["bench.trace_unattributed_share"] = float64(selfTimes(rec.spans)["query"]) / float64(spanNS["query"])
	perQueryUS := func(name string) float64 { return float64(spanNS[name]) / float64(n) / 1e3 }
	m["sqlparser.normalize_us"] = perQueryUS("sqlparser.normalize")
	m["sqlparser.parse_us"] = perQueryUS("sqlparser.parse")
	m["plan.bind_us"] = perQueryUS("plan.bind")
	m["magic.rewrite_us"] = perQueryUS("magic.rewrite")
	m["optimizer.build_us"] = perQueryUS("optimizer.build")
	m["optimizer.instantiate_us"] = perQueryUS("optimizer.instantiate")

	m["sip.exec_inproc_p50_ms"] = durMedianMS(plain.exec)
	m["sip.first_row_inproc_ms"] = durMedianMS(plain.firstRow)
	wireFirst := make([]time.Duration, len(plain.wire))
	wireLat := make([]time.Duration, len(plain.wire))
	for i, s := range plain.wire {
		wireFirst[i], wireLat[i] = s.firstRow, s.latency
	}
	m["server.first_row_ms"] = durMedianMS(wireFirst)
	f.resultMetrics(m, plain)

	// The serving tier's tax: the same text over the wire against the same
	// text through Engine.QueryStream, both from the loop above.
	m["sip.adhoc_inproc_p50_ms"] = durMedianMS(plain.adhoc)
	m["server.tax_ms"] = durMedianMS(wireLat) - m["sip.adhoc_inproc_p50_ms"]

	// Allocations, around an in-process loop this goroutine runs alone.
	capped, mallocs, bytes, err := f.adhocLoop(ctx, n, f.budget)
	if err != nil {
		return nil, err
	}
	m["exec.allocs_per_query"] = float64(mallocs) / float64(n)
	m["exec.alloc_mb_per_query"] = float64(bytes) / float64(n) / 1e6
	if f.w.spill {
		uncapped, _, _, err := f.adhocLoop(ctx, n, 0)
		if err != nil {
			return nil, err
		}
		m["exec.spill_slowdown"] = durMedianMS(capped) / durMedianMS(uncapped)
	}

	// The whole front end cold: Engine.Prepare on an engine without a plan
	// cache, over the workload's distinct texts.
	cold := sip.NewEngineWithConfig(f.cat, sip.EngineConfig{PlanCacheSize: -1})
	const prepareReps = 5
	var prepared time.Duration
	for i, c := range f.w.round {
		sql := f.lanes[0].gen.next(i).sql
		for rep := 0; rep < prepareReps; rep++ {
			t0 := time.Now()
			if _, err := cold.PrepareWithOptions(ctx, sql, f.options(c)); err != nil {
				return nil, err
			}
			prepared += time.Since(t0)
		}
	}
	m["sip.prepare_us"] = float64(prepared.Nanoseconds()) / 1e3 / float64(prepareReps*len(f.w.round))

	if err := f.kernelMetrics(m); err != nil {
		return nil, err
	}
	return &layerReport{metrics: m, spans: rec.spans, attempted: wire.attempted, failed: wire.failed}, nil
}

// serverCounts totals the servers' finished-query counters.
func (f *fixture) serverCounts() (ok, failed int64) {
	for _, l := range f.servers {
		ok += l.srv.Metrics().QueriesOK.Load()
		failed += l.srv.Metrics().QueriesFailed.Load()
	}
	return ok, failed
}

// adhocLoop runs n requests through Engine.QueryStream with their text,
// drained, from this goroutine alone, and returns the latencies and the
// allocations (count, bytes) the loop made.
func (f *fixture) adhocLoop(ctx context.Context, n int, budget int64) ([]time.Duration, uint64, uint64, error) {
	ln := f.lanes[0]
	lat := make([]time.Duration, 0, n)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for q := 0; q < n; q++ {
		r := ln.gen.next(ln.i)
		ln.i++
		opts := f.options(r.cell)
		opts.MemBudget = budget
		t0 := time.Now()
		rows, err := f.eng.QueryStream(ctx, r.sql, opts)
		if err != nil {
			return nil, 0, 0, err
		}
		for rows.Next() {
		}
		lat = append(lat, time.Since(t0))
		if err := rows.Err(); err != nil {
			return nil, 0, 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return lat, ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, nil
}

// resultMetrics averages the engine's own counts (Result and its Stats
// registry) over the in-process executions, and fills the Table I cells.
func (f *fixture) resultMetrics(m metricSet, run *layerRun) {
	n := float64(len(run.results))
	var busy, busyCap float64
	for _, res := range run.results {
		m["exec.scan_rows"] += float64(res.TuplesScanned) / n
		m["exec.operator_rows"] += float64(res.TuplesProcessed) / n
		m["exec.peak_mem_mb"] += float64(res.PeakMemBytes) / 1e6 / n
		m["core.filters_created"] += float64(res.FiltersCreated) / n
		m["core.filters_injected"] += float64(res.FiltersInjected) / n
		m["core.tuples_pruned"] += float64(res.TuplesPruned) / n
		m["filter.bytes"] += float64(res.FilterBytes) / n
		m["filter.peak_working_bytes"] += float64(res.PeakFilterWorkingBytes) / n
		for _, op := range res.Stats.Ops() {
			if _, ok := m["exec."+op.Class+"_in_rows"]; ok {
				m["exec."+op.Class+"_in_rows"] += float64(op.In.Load()) / n
				m["exec."+op.Class+"_out_rows"] += float64(op.Out.Load()) / n
			}
		}
		m["sched.morsels"] += float64(res.Stats.SchedMorsels.Load()) / n
		m["sched.steals"] += float64(res.Stats.SchedSteals.Load()) / n
		workers, perWorker := res.Stats.SchedBusy()
		for _, b := range perWorker {
			busy += b.Seconds()
		}
		busyCap += float64(workers) * res.Duration.Seconds()
	}
	if busyCap > 0 {
		m["sched.worker_busy_share"] = busy / busyCap
	}
	if m["exec.scan_rows"] > 0 {
		m["core.pruned_share"] = m["core.tuples_pruned"] / m["exec.scan_rows"]
	}
	if p50 := m["sip.exec_inproc_p50_ms"]; p50 > 0 {
		m["exec.scan_rows_per_s"] = m["exec.scan_rows"] / (p50 / 1e3)
	}
	if len(f.w.round) == 1 {
		return
	}
	ms := map[cell][]float64{}
	state := map[cell][]float64{}
	for i, c := range run.cells {
		ms[c] = append(ms[c], msOf(run.exec[i]))
		state[c] = append(state[c], float64(run.results[i].PeakStateBytes)/1e6)
	}
	for c := range ms {
		m[cellMetric(c.query, c.strategy, "ms")] = median(ms[c])
		m[cellMetric(c.query, c.strategy, "state_mb")] = median(state[c])
	}
}

// perItem times fn, which processes n items per call, for at least 30 ms
// and returns nanoseconds per item.
func perItem(n int, fn func()) float64 {
	fn() // warm
	const minDur = 30 * time.Millisecond
	calls := 0
	start := time.Now()
	for time.Since(start) < minDur {
		fn()
		calls++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls) / float64(n)
}

// kernelBatch is the batch size the kernel loops feed, the executor's own.
const kernelBatch = exec.BatchSize

// sink keeps the compiler from discarding the lookup loop.
var sink int32

// kernelMetrics times the kernels under the operators by calling them
// directly on the workload's own tables: part keys build, lineitem keys
// probe, the way Q17's filters see them.
func (f *fixture) kernelMetrics(m metricSet) error {
	part, err := f.cat.Table("part")
	if err != nil {
		return err
	}
	lineitem, err := f.cat.Table("lineitem")
	if err != nil {
		return err
	}
	pk, lk := part.ColumnIndex("p_partkey"), lineitem.ColumnIndex("l_partkey")
	probeRows := lineitem.Rows
	if len(probeRows) > 1<<18 {
		probeRows = probeRows[:1<<18]
	}

	// A tenth of the part keys go into the filter, so nine tenths of the
	// probes are true negatives and the false-positive rate is observable.
	pick := f.seed % 10
	var buildHashes []uint64
	for _, row := range part.Rows {
		if k := row[pk].I; k%10 == pick {
			buildHashes = append(buildHashes, types.HashIntKey(k))
		}
	}
	probeKeys := make([]int64, len(probeRows))
	for i, row := range probeRows {
		probeKeys[i] = row[lk].I
	}
	probeHashes := make([]uint64, len(probeRows))
	sel := make([]int32, kernelBatch)
	for i := range sel {
		sel[i] = int32(i)
	}
	m["types.hash_intkey_ns"] = perItem(len(probeKeys), func() {
		for i, k := range probeKeys {
			probeHashes[i] = types.HashIntKey(k)
		}
	})

	var bf *bloom.Blocked
	m["bloom.build_ns_per_key"] = perItem(len(buildHashes), func() {
		bf = bloom.NewBlocked(len(buildHashes), 0.05) // the engine's default FPR target
		bf.AddHashBatch(buildHashes)
	})
	out := make([]int32, 0, kernelBatch)
	passed := 0
	m["bloom.probe_ns_per_key"] = perItem(len(probeHashes), func() {
		passed = 0
		for off := 0; off < len(probeHashes); off += kernelBatch {
			end := min(off+kernelBatch, len(probeHashes))
			passed += len(bf.ProbeHashBatch(probeHashes[off:end], sel[:end-off], out[:0]))
		}
	})
	members := 0
	for _, k := range probeKeys {
		if k%10 == pick {
			members++
		}
	}
	if neg := len(probeRows) - members; neg > 0 {
		m["bloom.observed_fpr"] = float64(passed-members) / float64(neg)
	}

	bank := exec.NewFilterBank()
	bank.Attach([]int{lk}, filter.Blocked{F: bf})
	var sc exec.ProbeScratch
	keyCols := []int{lk}
	m["exec.filterbank_probe_ns_per_row"] = perItem(len(probeRows), func() {
		for off := 0; off < len(probeRows); off += kernelBatch {
			end := min(off+kernelBatch, len(probeRows))
			out = bank.ProbeBatch(probeRows[off:end], keyCols, sel[:end-off], out[:0], &sc)
		}
	})

	// KeyTable: every part key inserted, lineitem keys looked up.
	keys := make([]byte, 0, 9*len(part.Rows))
	hashes := make([]uint64, len(part.Rows))
	for i, row := range part.Rows {
		keys = types.AppendIntKey(keys, row[pk].I)
		hashes[i] = types.HashIntKey(row[pk].I)
	}
	var kt *types.KeyTable
	m["types.keytable_insert_ns"] = perItem(len(hashes), func() {
		kt = types.NewKeyTable(0)
		for i, h := range hashes {
			kt.Insert(h, keys[9*i:9*i+9])
		}
	})
	var key [9]byte
	m["types.keytable_lookup_ns"] = perItem(len(probeKeys), func() {
		var x int32
		for i, k := range probeKeys {
			x ^= kt.Lookup(probeHashes[i], types.AppendIntKey(key[:0], k))
		}
		sink = x
	})

	// The stream predicate, compiled and run over lineitem.
	blk, err := plan.BindSQL(f.cat, fmt.Sprintf(streamSQL, 5000))
	if err != nil {
		return err
	}
	if len(blk.Conjuncts) != 1 {
		return fmt.Errorf("stream predicate bound to %d conjuncts, want 1", len(blk.Conjuncts))
	}
	m["expr.filter_ns_per_row"] = perItem(len(probeRows), func() {
		pred := expr.Compile(blk.Conjuncts[0].E)
		for off := 0; off < len(probeRows); off += kernelBatch {
			end := min(off+kernelBatch, len(probeRows))
			out = pred.EvalBool(probeRows[off:end], sel[:end-off], out[:0])
		}
	})

	return spillMetrics(m, probeRows, lk)
}

// spillMetrics round-trips sampled lineitem rows through a spill run.
func spillMetrics(m metricSet, rows []types.Tuple, keyCol int) error {
	if len(rows) > 50000 {
		rows = rows[:50000]
	}
	dir, err := os.MkdirTemp("", "sipbench-spill-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	run, err := spill.NewRun(dir, "bench")
	if err != nil {
		return err
	}
	defer run.Close()
	var key [9]byte
	t0 := time.Now()
	for i, row := range rows {
		k := row[keyCol].I
		rec := spill.Record{Seq: uint64(i), Hash: types.HashIntKey(k), Key: types.AppendIntKey(key[:0], k), Tuple: row}
		if err := run.Append(&rec); err != nil {
			return err
		}
	}
	if err := run.Flush(); err != nil {
		return err
	}
	wrote := time.Since(t0)
	rd, err := run.Reader()
	if err != nil {
		return err
	}
	defer rd.Close()
	t0 = time.Now()
	var rec spill.Record
	n := 0
	for {
		ok, err := rd.Next(&rec)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	read := time.Since(t0)
	if n != len(rows) {
		return fmt.Errorf("spill run returned %d of %d records", n, len(rows))
	}
	mb := float64(run.Bytes()) / 1e6
	m["spill.write_mb_per_s"] = mb / wrote.Seconds()
	m["spill.read_mb_per_s"] = mb / read.Seconds()
	return nil
}
