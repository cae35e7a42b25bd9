package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// runSched executes a plan under an explicit scheduler and fan-out.
func runSched(op Op, parallelism int, scheduler string) ([]types.Tuple, *stats.Registry, error) {
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = parallelism
	ctx.Scheduler = scheduler
	rows, err := Run(ctx, op)
	return rows, reg, err
}

// TestMorselDifferentialJoin is the central acceptance property: the morsel
// scheduler must produce exactly the chan scheduler's result multiset, at
// every fan-out, on a join with duplicate keys (multi-match chains) and a
// residual predicate.
func TestMorselDifferentialJoin(t *testing.T) {
	const n = 6000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 200)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64((n - 1 - i) % 200)), types.Int(int64(i))}
	}
	residual := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}},
		R: &expr.ColRef{Idx: 3, Col: types.Column{Kind: types.KindInt}}}
	build := func() *HashJoin {
		j := buildJoin(lrows, rrows)
		j.Residual = residual
		return j
	}
	want, _, err := runSched(build(), 1, SchedulerChan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline produced no rows — test is vacuous")
	}
	wantS := rowStrings(want)
	for _, p := range []int{1, 2, 4, 8} {
		got, reg, err := runSched(build(), p, SchedulerMorsel)
		if err != nil {
			t.Fatalf("morsel P=%d: %v", p, err)
		}
		sameRows(t, fmt.Sprintf("morsel P=%d", p), wantS, rowStrings(got))
		if reg.SchedMorsels.Load() == 0 {
			t.Fatalf("morsel P=%d: no scheduler tasks recorded", p)
		}
		// Per-partition counters must fold to the side totals, as on chan.
		for _, op := range reg.Ops() {
			if op.Class != "join" {
				continue
			}
			var partRows int64
			for i := 0; i < op.Partitions(); i++ {
				partRows += op.Part(i).Rows.Load()
			}
			if partRows != op.StateRows.Load() {
				t.Fatalf("morsel P=%d: op %s partition rows %d != state rows %d",
					p, op.Name, partRows, op.StateRows.Load())
			}
		}
	}
}

// TestMorselDifferentialAgg: identical groups and integer aggregates across
// schedulers and fan-outs (integer accumulators are order-independent).
func TestMorselDifferentialAgg(t *testing.T) {
	const n = 8000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 97)), types.Int(int64(i))}
	}
	build := func() *HashAgg {
		scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v")}
		gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
		aggs := []plan.AggSpec{
			{Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "s"},
			{Func: plan.AggCountStar, Name: "c"},
			{Func: plan.AggMin, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "m"},
			{Func: plan.AggMax, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "x"},
		}
		return NewHashAgg("agg", scan, gb, aggs, intSchema("g", "s", "c", "m", "x"))
	}
	want, _, err := runSched(build(), 1, SchedulerChan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 97 {
		t.Fatalf("baseline groups = %d, want 97", len(want))
	}
	wantS := rowStrings(want)
	for _, p := range []int{1, 2, 4, 8} {
		got, _, err := runSched(build(), p, SchedulerMorsel)
		if err != nil {
			t.Fatalf("morsel P=%d: %v", p, err)
		}
		sameRows(t, fmt.Sprintf("morsel agg P=%d", p), wantS, rowStrings(got))
	}
}

// TestMorselDifferentialDistinct: global dedup identical across schedulers.
func TestMorselDifferentialDistinct(t *testing.T) {
	const n = 6000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 173))}
	}
	build := func() *Distinct {
		scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}
		return &Distinct{Name: "d", Child: scan,
			Point: &Point{Name: "d", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
				EqIDs: []int{-1}, StateEqIDs: []int{-1}, DomainDistinct: []float64{0}}}
	}
	want, _, err := runSched(build(), 1, SchedulerChan)
	if err != nil {
		t.Fatal(err)
	}
	wantS := rowStrings(want)
	for _, p := range []int{1, 4} {
		d := build()
		got, _, err := runSched(d, p, SchedulerMorsel)
		if err != nil {
			t.Fatalf("morsel P=%d: %v", p, err)
		}
		sameRows(t, fmt.Sprintf("morsel distinct P=%d", p), wantS, rowStrings(got))
		if d.Point.StoredRows() != 173 {
			t.Fatalf("morsel distinct P=%d stored %d, want 173", p, d.Point.StoredRows())
		}
		var iterSeen int
		d.Point.IterState(func(types.Tuple) bool { iterSeen++; return true })
		if iterSeen != 173 {
			t.Fatalf("morsel distinct P=%d state iter saw %d, want 173", p, iterSeen)
		}
	}
}

// TestMorselDifferentialDeepPlan pushes a filter→join→project→agg pipeline
// through both schedulers: fused stateless stages, two scan inputs, a
// partitioned join feeding a partitioned aggregation.
func TestMorselDifferentialDeepPlan(t *testing.T) {
	const n = 5000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 150)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 150)), types.Int(int64(i % 13))}
	}
	build := func() Op {
		l := &Filter{Name: "f", Child: &Scan{Name: "l", Rows: lrows, Sch: intSchema("a", "x")},
			Pred: &expr.Binary{Op: expr.OpLt,
				L: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}},
				R: &expr.Const{V: types.Int(4000)}}}
		r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("a", "y")}
		j := NewHashJoin("j", l, r, []int{0}, []int{0}, nil)
		pr := &Project{Name: "p", Child: j, Sch: intSchema("a", "y2"),
			Exprs: []expr.Expr{
				&expr.ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}},
				&expr.Binary{Op: expr.OpMul,
					L: &expr.ColRef{Idx: 3, Col: types.Column{Kind: types.KindInt}},
					R: &expr.Const{V: types.Int(2)}},
			}}
		gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "a", Kind: types.KindInt}}}
		aggs := []plan.AggSpec{
			{Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "s"},
			{Func: plan.AggCountStar, Name: "c"},
		}
		return NewHashAgg("agg", pr, gb, aggs, intSchema("a", "s", "c"))
	}
	want, _, err := runSched(build(), 2, SchedulerChan)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline produced no rows — test is vacuous")
	}
	wantS := rowStrings(want)
	for _, p := range []int{1, 4} {
		got, _, err := runSched(build(), p, SchedulerMorsel)
		if err != nil {
			t.Fatalf("morsel P=%d: %v", p, err)
		}
		sameRows(t, fmt.Sprintf("morsel deep P=%d", p), wantS, rowStrings(got))
	}
}

// TestMorselRangeScanSplits pins the parallel-scan tentpole: a large table
// is range-split into morselScanRows chunks (visible as pool tasks), and a
// fused filter sees every row exactly once.
func TestMorselRangeScanSplits(t *testing.T) {
	const n = 50000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	f := &Filter{Name: "f", Child: &Scan{Name: "t", Rows: rows, Sch: intSchema("a")},
		Pred: &expr.Binary{Op: expr.OpLt,
			L: &expr.ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}},
			R: &expr.Const{V: types.Int(n / 2)}}}
	got, reg, err := runSched(f, 4, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n/2 {
		t.Fatalf("filter passed %d rows, want %d", len(got), n/2)
	}
	minChunks := int64(n / scanChunkRows)
	if m := reg.SchedMorsels.Load(); m < minChunks {
		t.Fatalf("scheduler ran %d tasks; a range-split scan of %d rows must yield >= %d",
			m, n, minChunks)
	}
	for _, op := range reg.Ops() {
		// The filter is fused into the scan: it reads n rows and emits the
		// predicate's survivors.
		if op.Class == "scan" && (op.In.Load() != n || op.Out.Load() != n/2) {
			t.Fatalf("scan In/Out = %d/%d, want %d/%d", op.In.Load(), op.Out.Load(), n, n/2)
		}
	}
}

// TestMorselStealingDeterminism re-runs a heavy multi-key join many times
// at a high fan-out: steal order varies between runs, the result must not.
// (The exactly-once count 100 keys × 40×40 pairs is itself the invariant.)
func TestMorselStealingDeterminism(t *testing.T) {
	const n = 4000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
	}
	var want []string
	for trial := 0; trial < 6; trial++ {
		rows, _, err := runSched(buildJoin(lrows, rrows), 4, SchedulerMorsel)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(rows) != 100*40*40 {
			t.Fatalf("trial %d: join produced %d rows, want %d", trial, len(rows), 100*40*40)
		}
		got := rowStrings(rows)
		if trial == 0 {
			want = got
			continue
		}
		sameRows(t, fmt.Sprintf("trial %d", trial), want, got)
	}
}

// TestMorselShortCircuit verifies the §VI-A short-circuit on the morsel
// path: once the small side completes, partitions stop buffering the big
// (delayed) side and its state is marked incomplete.
func TestMorselShortCircuit(t *testing.T) {
	small := intRows([]int64{1, 0})
	big := make([]types.Tuple, 5000)
	for i := range big {
		big[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
	}
	l := &Scan{Name: "l", Rows: small, Sch: intSchema("a", "x")}
	// The delayed big side runs as a sequential source whose initial pause
	// dwarfs the 2-tuple small side's completion by orders of magnitude.
	r := &Scan{Name: "r", Rows: big, Sch: intSchema("a", "y"),
		Delay: &DelayConfig{Initial: 300 * time.Millisecond}}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, nil)
	j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
		EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
		EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	rows, _, err := runSched(j, 4, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if j.RPoint.StoredRows() != 0 {
		t.Fatalf("short-circuit failed: big side stored %d rows", j.RPoint.StoredRows())
	}
	if j.RPoint.StateComplete() {
		t.Fatal("short-circuited state must be marked incomplete")
	}
	if !j.LPoint.StateComplete() {
		t.Fatal("completed small side must have complete state")
	}
	var seen int
	j.LPoint.IterState(func(types.Tuple) bool { seen++; return true })
	if seen != 1 {
		t.Fatalf("state iter saw %d tuples, want 1", seen)
	}
}

// TestMorselCancellationNoLeakExactStats cancels a morsel-scheduled join
// mid-stream and asserts (a) every pool worker and supervisor goroutine
// exits, and (b) the Out counters equal exactly the delivered tuples.
func TestMorselCancellationNoLeakExactStats(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 20000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 50)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 50)), types.Int(int64(i))}
	}
	j := buildJoin(lrows, rrows)
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 4
	ctx.Scheduler = SchedulerMorsel
	out := StartPlan(ctx, j)

	drained := int64(0)
	got := 0
	for b := range out {
		drained += int64(b.Len())
		got++
		if got == 3 {
			ctx.Cancel()
		}
		PutBatch(b)
	}
	waitGoroutines(t, baseline)

	var emitted int64
	for _, op := range reg.Ops() {
		if op.Class == "join" {
			emitted += op.Out.Load()
		}
	}
	if emitted != drained {
		t.Fatalf("join Out counters = %d, drained %d: counters must match delivered tuples exactly",
			emitted, drained)
	}
	if drained == 0 {
		t.Fatal("nothing drained — test is vacuous")
	}
}

// TestMorselCancelMidRoutingDoesNotPublishState: a cancelled morsel
// aggregation must never mark its AIP point Done (partial state published
// as complete would give filters false negatives).
func TestMorselCancelMidRoutingDoesNotPublishState(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rows := make([]types.Tuple, 100000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v"),
		Delay: &DelayConfig{EveryN: 256, Pause: time.Millisecond}}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	h := NewHashAgg("agg", scan, gb, aggs, intSchema("g", "c"))
	h.Point = &Point{Name: "agg", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
		EqIDs: []int{0, -1}, StateEqIDs: []int{0}, DomainDistinct: []float64{0}}

	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = 4
	ctx.Scheduler = SchedulerMorsel
	out := StartPlan(ctx, h)
	time.Sleep(5 * time.Millisecond) // let some batches route
	ctx.Cancel()
	for b := range out {
		PutBatch(b)
	}
	waitGoroutines(t, baseline)
	if h.Point.Done() {
		t.Fatal("cancelled aggregation must not mark its point Done: state is partial")
	}
	if h.Point.Received() == 0 {
		t.Fatal("nothing routed before cancel — test is vacuous")
	}
}

// TestMorselDeadlineNoLeak binds a short std-context deadline to a paced
// morsel execution: the query must surface the deadline and reclaim every
// goroutine (pool workers, sequential source, supervisor, watcher).
func TestMorselDeadlineNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rows := make([]types.Tuple, 200000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a"),
		Delay: &DelayConfig{EveryN: 128, Pause: time.Millisecond}}
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 4
	ctx.Scheduler = SchedulerMorsel
	go func() {
		time.Sleep(10 * time.Millisecond)
		ctx.Cancel()
	}()
	_, err := Run(ctx, scan)
	if err == nil {
		t.Fatal("cancelled run must report its cause")
	}
	waitGoroutines(t, baseline)
}

// TestMorselFallback pins the transparent chan fallback: a plan containing
// an operator the morsel compiler does not know (the test-only gated op)
// still executes, on the chan engine, with identical results.
func TestMorselFallback(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{3})
	g := &gated{child: &Scan{Name: "t", Rows: rows, Sch: intSchema("a")},
		cond: func() bool { return true }}
	got, reg, err := runSched(g, 2, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("fallback run produced %d rows, want 3", len(got))
	}
	if reg.SchedMorsels.Load() != 0 {
		t.Fatal("fallback run must not record morsel scheduler activity")
	}
}

// TestMorselSequentialSourceDifferential: a delayed (sequential-source)
// scan joined to a plain one produces the chan engine's exact rows.
func TestMorselSequentialSourceDifferential(t *testing.T) {
	const n = 3000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 80)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 80)), types.Int(int64(i))}
	}
	build := func() *HashJoin {
		j := buildJoin(lrows, rrows)
		j.Left.(*Scan).Delay = &DelayConfig{EveryN: 500, Pause: time.Millisecond}
		return j
	}
	want, _, err := runSched(build(), 2, SchedulerChan)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runSched(build(), 2, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "delayed-source", rowStrings(want), rowStrings(got))
}

// TestMorselSchedStats: a morsel run records pool width, busy times, and
// task counts in the registry, and Report prints the sched line.
func TestMorselSchedStats(t *testing.T) {
	const n = 20000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 97)), types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v")}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	h := NewHashAgg("agg", scan, gb, aggs, intSchema("g", "c"))
	_, reg, err := runSched(h, 4, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if reg.SchedMorsels.Load() == 0 {
		t.Fatal("no morsels recorded")
	}
	workers, busy := reg.SchedBusy()
	if workers < 1 || len(busy) != workers {
		t.Fatalf("sched busy shape: workers=%d len(busy)=%d", workers, len(busy))
	}
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	if total <= 0 {
		t.Fatal("no busy time accounted")
	}
	rep := reg.Report()
	if !contains(rep, "sched: workers=") {
		t.Fatalf("Report missing sched line:\n%s", rep)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMorselEmptyInputs: empty tables still complete every barrier — the
// empty-scan task, the router holds, the agg's empty-global row.
func TestMorselEmptyInputs(t *testing.T) {
	j := buildJoin(nil, nil)
	rows, _, err := runSched(j, 4, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty join produced %d rows", len(rows))
	}

	scan := &Scan{Name: "t", Rows: nil, Sch: intSchema("v")}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	res, _, err := runSched(NewHashAgg("agg", scan, nil, aggs, intSchema("c")), 4, SchedulerMorsel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("global agg over empty input emitted %d rows, want 1", len(res))
	}
	if c, _ := res[0][0].AsInt(); c != 0 {
		t.Fatalf("count = %d, want 0", c)
	}
}

// TestMorselAdaptiveLoadDegradation: the pool width divides by the
// engine-reported load instead of oversubscribing.
func TestMorselAdaptiveLoadDegradation(t *testing.T) {
	const n = 30000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 8
	ctx.Scheduler = SchedulerMorsel
	ctx.Load = func() int { return 4 } // heavily loaded server
	if _, err := Run(ctx, scan); err != nil {
		t.Fatal(err)
	}
	workers, _ := reg.SchedBusy()
	if workers != 2 {
		t.Fatalf("pool width under load 4 with P=8: %d workers, want 2", workers)
	}
}
