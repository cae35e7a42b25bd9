package exec

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// gated delays its child's stream until cond holds (with a liberal safety
// deadline), making completion-order tests — short-circuit, state
// iterators — deterministic instead of sleep-calibrated: under heavy CPU
// oversubscription a fixed delay can elapse before the other input's
// completion has propagated through router and workers.
type gated struct {
	child Op
	cond  func() bool
}

func (g *gated) Schema() *types.Schema { return g.child.Schema() }

func (g *gated) Start(ctx *Context) <-chan Batch {
	in := g.child.Start(ctx)
	out := make(chan Batch, 1)
	go func() {
		defer close(out)
		deadline := time.Now().Add(10 * time.Second)
		for !g.cond() && time.Now().Before(deadline) {
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Cancelled():
				return
			}
		}
		for b := range in {
			if !send(ctx, out, b) {
				return
			}
		}
	}()
	return out
}

// runParallel executes a plan at an explicit partition fan-out and returns
// the rows, the stats registry and the run's error.
func runParallel(op Op, parallelism int) ([]types.Tuple, *stats.Registry, error) {
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = parallelism
	rows, err := Run(ctx, op)
	return rows, reg, err
}

func rowStrings(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: row %d = %s, want %s", label, i, got[i], want[i])
		}
	}
}

// TestJoinPartitionDeterminism is the acceptance property of the radix
// partitioned join: every partition fan-out produces exactly the same
// result multiset as the single-partition path, on a shape with duplicate
// keys (multi-match chains) and a residual predicate.
func TestJoinPartitionDeterminism(t *testing.T) {
	const n = 3000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 200)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64((n - 1 - i) % 200)), types.Int(int64(i))}
	}
	residual := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}},
		R: &expr.ColRef{Idx: 3, Col: types.Column{Kind: types.KindInt}}}

	var want []string
	for _, p := range []int{1, 2, 4, 8} {
		j := buildJoin(lrows, rrows)
		j.Residual = residual
		rows, reg, _ := runParallel(j, p)
		got := rowStrings(rows)
		if p == 1 {
			want = got
			if len(want) == 0 {
				t.Fatal("baseline produced no rows — test is vacuous")
			}
			continue
		}
		sameRows(t, fmt.Sprintf("P=%d", p), want, got)

		// The per-partition counters must fold to the side totals.
		for _, op := range reg.Ops() {
			if op.Class != "join" {
				continue
			}
			if op.Partitions() != p {
				t.Fatalf("P=%d: op %s has %d partitions", p, op.Name, op.Partitions())
			}
			var partRows int64
			for i := 0; i < op.Partitions(); i++ {
				partRows += op.Part(i).Rows.Load()
			}
			if partRows != op.StateRows.Load() {
				t.Fatalf("P=%d: op %s partition rows %d != state rows %d",
					p, op.Name, partRows, op.StateRows.Load())
			}
		}
	}
}

// TestJoinExactlyOncePartitioned re-runs the central exactly-once property
// at a multi-partition fan-out: 100 keys × 40 duplicates per side must
// yield exactly 40×40 pairs per key, every trial.
func TestJoinExactlyOncePartitioned(t *testing.T) {
	const n = 4000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
	}
	for trial := 0; trial < 5; trial++ {
		rows, _, _ := runParallel(buildJoin(lrows, rrows), 4)
		if want := 100 * 40 * 40; len(rows) != want {
			t.Fatalf("trial %d: join produced %d rows, want %d", trial, len(rows), want)
		}
	}
}

// TestJoinShortCircuitPartitioned verifies the §VI-A optimization across
// partitions: after the small side completes (router finished AND all
// scattered messages drained), no partition buffers the big side.
func TestJoinShortCircuitPartitioned(t *testing.T) {
	small := intRows([]int64{1, 0})
	big := make([]types.Tuple, 5000)
	for i := range big {
		big[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
	}
	l := &Scan{Name: "l", Rows: small, Sch: intSchema("a", "x")}
	// Gate the big side on the small side's completion: the short-circuit
	// is then guaranteed, not a race against a sleep.
	var lp *Point
	r := &gated{child: &Scan{Name: "r", Rows: big, Sch: intSchema("a", "y")},
		cond: func() bool { return lp.Done() }}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	lp = j.LPoint
	j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	rows, _, _ := runParallel(j, 4)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
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
	// The small side's state iterator walks every partition.
	var seen int
	j.LPoint.IterState(func(types.Tuple) bool { seen++; return true })
	if seen != 1 {
		t.Fatalf("state iter saw %d tuples, want 1", seen)
	}
}

// TestAggPartitionDeterminism checks that partitioned aggregation produces
// identical groups and (integer) aggregates at every fan-out.
func TestAggPartitionDeterminism(t *testing.T) {
	const n = 5000
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
	var want []string
	for _, p := range []int{1, 2, 4, 8} {
		res, reg, _ := runParallel(build(), p)
		got := rowStrings(res)
		if p == 1 {
			want = got
			if len(want) != 97 {
				t.Fatalf("baseline groups = %d, want 97", len(want))
			}
			continue
		}
		sameRows(t, fmt.Sprintf("agg P=%d", p), want, got)
		for _, op := range reg.Ops() {
			if op.Class != "agg" {
				continue
			}
			var partRows int64
			for i := 0; i < op.Partitions(); i++ {
				partRows += op.Part(i).Rows.Load()
			}
			if partRows != 97 || op.StateRows.Load() != 97 {
				t.Fatalf("agg P=%d: partition rows %d / state rows %d, want 97",
					p, partRows, op.StateRows.Load())
			}
		}
	}
}

// TestAggComputedGroupKeys: a GROUP BY of a computed expression and a column
// (k + 1, d), routed by a router that keys the evaluated values, at P = 1 and
// P = 4. Most batches key as words; every fourth holds integral DECIMAL k
// values and a NULL, so it keys as bytes, and a DECIMAL 4.0 + 1 must land in
// the group of INT 4 + 1. Groups are compared with a reference by their
// canonical key encoding and count.
func TestAggComputedGroupKeys(t *testing.T) {
	const n = 6000
	rows := make([]types.Tuple, n)
	for i := range rows {
		k := types.Int(int64(i % 41))
		if i/BatchSize%4 == 3 {
			if k = types.Float(float64(k.I)); i%50 == 0 {
				k = types.Null()
			}
		}
		rows[i] = types.Tuple{k, types.Int(int64(i % 3))}
	}
	sch := intSchema("k", "d")
	gb := []expr.Expr{
		&expr.Binary{Op: expr.OpAdd, L: &expr.ColRef{Idx: 0, Col: sch.Cols[0]}, R: &expr.Const{V: types.Int(1)}},
		&expr.ColRef{Idx: 1, Col: sch.Cols[1]},
	}
	groups := map[string]int{}
	for _, r := range rows {
		key := gb[0].Eval(r).AppendKey(nil)
		groups[string(gb[1].Eval(r).AppendKey(key))]++
	}
	var want []string
	for k, c := range groups {
		want = append(want, fmt.Sprintf("%x:%d", k, c))
	}
	sort.Strings(want)
	for _, p := range []int{1, 4} {
		scan := &Scan{Name: "t", Rows: rows, Sch: sch}
		aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
		res, reg, err := runParallel(NewHashAgg("agg", scan, gb, aggs, intSchema("g", "d", "c")), p)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range res {
			got = append(got, fmt.Sprintf("%x:%d", r[1].AppendKey(r[0].AppendKey(nil)), r[2].I))
		}
		sort.Strings(got)
		sameRows(t, fmt.Sprintf("P=%d", p), want, got)
		op := findOp(reg, "agg:agg")
		if op.WordBatches.Load() == 0 || op.ByteBatches.Load() == 0 {
			t.Fatalf("P=%d: keyed %d batches as words, %d as bytes; want both", p, op.WordBatches.Load(), op.ByteBatches.Load())
		}
	}
}

// TestAggGlobalEmptyPartitioned pins the SQL edge case at a multi-partition
// fan-out: a global aggregate over empty input emits exactly one row.
func TestAggGlobalEmptyPartitioned(t *testing.T) {
	scan := &Scan{Name: "t", Rows: nil, Sch: intSchema("v")}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	res, _, _ := runParallel(NewHashAgg("agg", scan, nil, aggs, intSchema("c")), 8)
	if len(res) != 1 {
		t.Fatalf("global agg over empty input emitted %d rows, want 1", len(res))
	}
	if c, _ := res[0][0].AsInt(); c != 0 {
		t.Fatalf("count = %d, want 0", c)
	}
}

// TestDistinctPartitionDeterminism checks global dedup across partitions:
// equal tuples always route to the same partition, so per-partition seen
// sets are globally exact at every fan-out.
func TestDistinctPartitionDeterminism(t *testing.T) {
	const n = 4000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 173))}
	}
	var want []string
	for _, p := range []int{1, 2, 4, 8} {
		scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}
		d := &Distinct{Name: "d", Child: scan,
			Point: &Point{Name: "d", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{-1}, StateEqIDs: []int{-1}, DomainDistinct: []float64{0}}}
		res, _, _ := runParallel(d, p)
		got := rowStrings(res)
		if p == 1 {
			want = got
			if len(want) != 173 {
				t.Fatalf("baseline distinct = %d, want 173", len(want))
			}
			continue
		}
		sameRows(t, fmt.Sprintf("distinct P=%d", p), want, got)
		if d.Point.StoredRows() != 173 {
			t.Fatalf("distinct P=%d stored %d, want 173", p, d.Point.StoredRows())
		}
		var iterSeen int
		d.Point.IterState(func(types.Tuple) bool { iterSeen++; return true })
		if iterSeen != 173 {
			t.Fatalf("distinct P=%d state iter saw %d, want 173", p, iterSeen)
		}
	}
}

// waitGoroutines polls until the live goroutine count drops back to the
// baseline (small slack for runtime helpers) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJoinCancellationExactStats cancels a high-fan-out join mid-stream,
// drains what was already emitted, and asserts (a) every join goroutine
// exits — no leak — and (b) the Out counters equal exactly the tuples that
// were delivered, which holds only because Out is counted per flushed
// batch at the send site.
func TestJoinCancellationExactStats(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 20000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 50)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 50)), types.Int(int64(i))}
	}
	j := buildJoin(lrows, rrows) // 50 keys × 400×400 pairs: far more than the test drains
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 4
	out := j.Start(ctx)

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

// TestAggCancellationExactStats is the same property for the aggregation's
// emission phase (the pre-fix code flushed Out before the final send).
func TestAggCancellationExactStats(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 20000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))} // n groups: many output batches
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v")}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	h := NewHashAgg("agg", scan, gb, aggs, intSchema("g", "c"))

	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 4
	out := h.Start(ctx)

	drained := int64(0)
	got := 0
	for b := range out {
		drained += int64(b.Len())
		got++
		if got == 2 {
			ctx.Cancel()
		}
		PutBatch(b)
	}
	waitGoroutines(t, baseline)

	var emitted int64
	for _, op := range reg.Ops() {
		if op.Class == "agg" {
			emitted += op.Out.Load()
		}
	}
	if emitted != drained {
		t.Fatalf("agg Out counter = %d, drained %d: counters must match delivered tuples exactly",
			emitted, drained)
	}
	if drained == 0 || drained >= n {
		t.Fatalf("drained %d of %d — cancellation did not interrupt emission", drained, n)
	}
}

// TestAggCancelMidRoutingDoesNotPublishState cancels an aggregation while
// its input is still streaming and asserts the AIP point is never marked
// Done: partial group state must not be published as a completed input's
// summary (a filter built from it would have false negatives).
func TestAggCancelMidRoutingDoesNotPublishState(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rows := make([]types.Tuple, 100000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
	}
	// Delay the scan so cancellation reliably lands mid-stream.
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v"),
		Delay: &DelayConfig{EveryN: 256, Pause: time.Millisecond}}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	h := NewHashAgg("agg", scan, gb, aggs, intSchema("g", "c"))
	h.Point = &Point{Name: "agg", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
		EqIDs: []int{0, -1}, StateEqIDs: []int{0}, DomainDistinct: []float64{0}}

	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = 4
	out := h.Start(ctx)
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

// TestDistinctCancellationNoLeak cancels a partitioned distinct mid-stream
// and asserts all workers and the router exit.
func TestDistinctCancellationNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n = 50000
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}
	d := &Distinct{Name: "d", Child: scan}
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	ctx.Parallelism = 4
	out := d.Start(ctx)

	drained := int64(0)
	got := 0
	for b := range out {
		drained += int64(b.Len())
		got++
		if got == 2 {
			ctx.Cancel()
		}
		PutBatch(b)
	}
	waitGoroutines(t, baseline)

	var emitted int64
	for _, op := range reg.Ops() {
		if op.Class == "distinct" {
			emitted += op.Out.Load()
		}
	}
	if emitted != drained {
		t.Fatalf("distinct Out counter = %d, drained %d", emitted, drained)
	}
}

// TestContextPartitionRounding pins the Parallelism-to-partition mapping:
// powers of two pass through, other values round down, and the cap holds.
func TestContextPartitionRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {63, 32},
		{MaxPartitions, MaxPartitions}, {MaxPartitions + 100, MaxPartitions},
	}
	for _, c := range cases {
		ctx := NewContext(stats.NewRegistry(), nil)
		ctx.Parallelism = c.in
		if got := ctx.partitions(); got != c.want {
			t.Fatalf("partitions(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// Unset falls back to GOMAXPROCS, still a power of two.
	ctx := NewContext(stats.NewRegistry(), nil)
	if p := ctx.partitions(); p < 1 || p&(p-1) != 0 {
		t.Fatalf("default partitions = %d, want a positive power of two", p)
	}
	// The cardinality clamp halves the fan-out for small estimates and
	// leaves estimate-free plans (est <= 0) at the requested fan-out.
	clamps := []struct {
		p    int
		est  float64
		want int
	}{
		{8, 0, 8}, {8, -1, 8},
		{8, 100, 1}, {8, 2 * minPartitionRows, 2},
		{8, 8 * minPartitionRows, 8}, {1, 5, 1},
	}
	for _, c := range clamps {
		if got := clampPartitions(c.p, c.est); got != c.want {
			t.Fatalf("clampPartitions(%d, %.0f) = %d, want %d", c.p, c.est, got, c.want)
		}
	}
}
