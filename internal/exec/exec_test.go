package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

func intSchema(names ...string) *types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Table: "t", Name: n, Kind: types.KindInt}
	}
	return types.NewSchema(cols...)
}

func intRows(vals ...[]int64) []types.Tuple {
	out := make([]types.Tuple, len(vals))
	for i, row := range vals {
		t := make(types.Tuple, len(row))
		for j, v := range row {
			t[j] = types.Int(v)
		}
		out[i] = t
	}
	return out
}

func runOp(t *testing.T, op Op, ctl Controller) []types.Tuple {
	t.Helper()
	ctx := NewContext(stats.NewRegistry(), ctl)
	rows, err := Run(ctx, op)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rows
}

func sortedInts(rows []types.Tuple, col int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i], _ = r[col].AsInt()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intCol(idx int) expr.Expr {
	return &expr.ColRef{Idx: idx, Col: types.Column{Kind: types.KindInt}}
}

// TestNarrowJoinMatchesNestedLoop: a join emitting a pruned subset of its
// inputs' columns — the residual and the Project above read only those —
// returns what a nested loop computes.
func TestNarrowJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(rng.Intn(40))), types.Int(int64(rng.Intn(100)))}
		rrows[i] = types.Tuple{types.Int(int64(rng.Intn(100))), types.Int(int64(-i)), types.Int(int64(rng.Intn(40)))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: intSchema("id", "a", "x")}
	r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("y", "id", "a")}
	// Emit (l.x, r.y, r.id) of (l.id, l.a, l.x, r.y, r.id, r.a); keys l.a = r.a.
	j := NewHashJoin("j", l, r, []int{1}, []int{2}, []int{2, 3, 4}, &expr.Binary{
		Op: expr.OpLt, L: intCol(0), R: intCol(1)})
	plan := &Project{Child: j, Name: "p", Sch: intSchema("d", "rid"),
		Exprs: []expr.Expr{&expr.Binary{Op: expr.OpSub, L: intCol(1), R: intCol(0)}, intCol(2)}}

	var want []string
	for _, lr := range lrows {
		for _, rr := range rrows {
			if lr[1].I == rr[2].I && lr[2].I < rr[0].I {
				want = append(want, fmt.Sprint(types.Tuple{types.Int(rr[0].I - lr[2].I), rr[1]}))
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("empty reference")
	}
	var got []string
	for _, row := range runOp(t, plan, nil) {
		got = append(got, fmt.Sprint(row))
	}
	sort.Strings(want)
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d rows, nested loop %d", len(got), len(want))
	}
}

func TestScanEmitsAll(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{3})
	got := runOp(t, &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}, nil)
	if len(got) != 3 {
		t.Fatalf("scan emitted %d rows", len(got))
	}
}

func TestScanLargeBatches(t *testing.T) {
	n := BatchSize*3 + 17
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	got := runOp(t, &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}, nil)
	if len(got) != n {
		t.Fatalf("scan emitted %d of %d rows", len(got), n)
	}
}

func TestScanDelay(t *testing.T) {
	rows := make([]types.Tuple, 50)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	s := &Scan{Name: "t", Rows: rows, Sch: intSchema("a"),
		Delay: &DelayConfig{Initial: 30 * time.Millisecond, EveryN: 10, Pause: 5 * time.Millisecond}}
	start := time.Now()
	got := runOp(t, s, nil)
	elapsed := time.Since(start)
	if len(got) != 50 {
		t.Fatalf("delayed scan lost rows: %d", len(got))
	}
	// 30ms initial + 5 pauses × 5ms = 55ms minimum.
	if elapsed < 50*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
}

func TestScanPacing(t *testing.T) {
	rows := make([]types.Tuple, 2000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	var bytes int64
	for _, r := range rows {
		bytes += int64(r.MemSize())
	}
	rate := bytes * 10 // whole table in ~100ms
	s := &Scan{Name: "t", Rows: rows, Sch: intSchema("a"), BytesPerSec: rate}
	start := time.Now()
	got := runOp(t, s, nil)
	elapsed := time.Since(start)
	if len(got) != 2000 {
		t.Fatalf("paced scan lost rows")
	}
	if elapsed < 60*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("pacing off target: %v (want ≈100ms)", elapsed)
	}
}

func TestFilterAndProject(t *testing.T) {
	rows := intRows([]int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a", "b")}
	f := &Filter{Child: scan, Name: "f", Pred: &expr.Binary{
		Op: expr.OpGt,
		L:  &expr.ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}},
		R:  &expr.Const{V: types.Int(1)},
	}}
	p := &Project{Child: f, Name: "p",
		Exprs: []expr.Expr{&expr.Binary{
			Op: expr.OpMul,
			L:  &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}},
			R:  &expr.Const{V: types.Int(2)},
		}},
		Sch: intSchema("b2")}
	got := runOp(t, p, nil)
	vals := sortedInts(got, 0)
	if len(vals) != 2 || vals[0] != 40 || vals[1] != 60 {
		t.Fatalf("filter+project = %v", vals)
	}
}

func buildJoin(lrows, rrows []types.Tuple) *HashJoin {
	l := &Scan{Name: "l", Rows: lrows, Sch: intSchema("a", "x")}
	r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("a", "y")}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true,
		EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
		Schema: l.Sch, DomainDistinct: []float64{10, 0}}
	j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true,
		EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
		Schema: r.Sch, DomainDistinct: []float64{10, 0}}
	return j
}

func TestSymmetricJoinBasic(t *testing.T) {
	l := intRows([]int64{1, 100}, []int64{2, 200}, []int64{2, 201})
	r := intRows([]int64{2, 7}, []int64{3, 8})
	got := runOp(t, buildJoin(l, r), nil)
	// key 2: two left × one right = 2 results.
	if len(got) != 2 {
		t.Fatalf("join produced %d rows, want 2", len(got))
	}
	for _, row := range got {
		a, _ := row[0].AsInt()
		y, _ := row[3].AsInt()
		if a != 2 || y != 7 {
			t.Fatalf("bad join row: %v", row)
		}
	}
}

// TestSymmetricJoinExactlyOnce is the central concurrency property: every
// matching pair is produced exactly once regardless of arrival interleaving.
func TestSymmetricJoinExactlyOnce(t *testing.T) {
	const n = 4000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(i % 100)), types.Int(int64(i))}
	}
	for trial := 0; trial < 5; trial++ {
		got := runOp(t, buildJoin(lrows, rrows), nil)
		// Each key appears 40 times on each side → 100 keys × 40×40 pairs.
		want := 100 * 40 * 40
		if len(got) != want {
			t.Fatalf("trial %d: join produced %d rows, want %d", trial, len(got), want)
		}
	}
}

func TestJoinResidual(t *testing.T) {
	l := intRows([]int64{1, 5}, []int64{1, 50})
	r := intRows([]int64{1, 10})
	j := buildJoin(l, r)
	// residual: l.x < r.y  (cols 1 and 3 of the concat schema)
	j.Residual = &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}},
		R: &expr.ColRef{Idx: 3, Col: types.Column{Kind: types.KindInt}}}
	got := runOp(t, j, nil)
	if len(got) != 1 {
		t.Fatalf("residual join rows = %d, want 1", len(got))
	}
	if v, _ := got[0][1].AsInt(); v != 5 {
		t.Fatalf("wrong row survived: %v", got[0])
	}
}

func TestJoinFilterBankPrunes(t *testing.T) {
	l := intRows([]int64{1, 0}, []int64{2, 0}, []int64{3, 0})
	r := intRows([]int64{1, 0}, []int64{2, 0}, []int64{3, 0})
	j := buildJoin(l, r)
	// Attach a summary to the left input admitting only key 2.
	hs := filter.NewHashSet(8)
	hs.Add(types.Int(2).AppendKey(nil))
	j.LPoint.Bank.Attach([]int{0}, hs)
	got := runOp(t, j, nil)
	if len(got) != 1 {
		t.Fatalf("filtered join rows = %d, want 1", len(got))
	}
	if j.LPoint.Received() != 3 {
		t.Fatalf("received = %d", j.LPoint.Received())
	}
	if j.LPoint.StoredRows() >= 3 {
		t.Fatalf("stored = %d, pruning did not reduce state", j.LPoint.StoredRows())
	}
}

// TestJoinShortCircuit verifies the §VI-A optimization: after one side
// completes, the other stops buffering and marks its state incomplete.
func TestJoinShortCircuit(t *testing.T) {
	small := intRows([]int64{1, 0})
	big := make([]types.Tuple, 5000)
	for i := range big {
		big[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
	}
	l := &Scan{Name: "l", Rows: small, Sch: intSchema("a", "x")}
	// Gate the big side on the small side's completion so it definitely
	// finishes first, regardless of scheduler load.
	var lp *Point
	r := &gated{child: &Scan{Name: "r", Rows: big, Sch: intSchema("a", "y")},
		cond: func() bool { return lp.Done() }}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	lp = j.LPoint
	j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	got := runOp(t, j, nil)
	if len(got) != 1 {
		t.Fatalf("rows = %d", len(got))
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
}

func TestHashAggSumMinCount(t *testing.T) {
	rows := intRows([]int64{1, 10}, []int64{1, 20}, []int64{2, 5})
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v")}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{
		{Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "s"},
		{Func: plan.AggMin, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "m"},
		{Func: plan.AggCountStar, Name: "c"},
		{Func: plan.AggAvg, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "a"},
		{Func: plan.AggMax, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "x"},
	}
	sch := intSchema("g", "s", "m", "c", "a", "x")
	got := runOp(t, NewHashAgg("agg", scan, gb, aggs, sch), nil)
	if len(got) != 2 {
		t.Fatalf("groups = %d", len(got))
	}
	byG := map[int64]types.Tuple{}
	for _, r := range got {
		g, _ := r[0].AsInt()
		byG[g] = r
	}
	g1 := byG[1]
	if s, _ := g1[1].AsInt(); s != 30 {
		t.Fatalf("sum = %v", g1[1])
	}
	if m, _ := g1[2].AsInt(); m != 10 {
		t.Fatalf("min = %v", g1[2])
	}
	if c, _ := g1[3].AsInt(); c != 2 {
		t.Fatalf("count = %v", g1[3])
	}
	if a, _ := g1[4].AsFloat(); a != 15 {
		t.Fatalf("avg = %v", g1[4])
	}
	if x, _ := g1[5].AsInt(); x != 20 {
		t.Fatalf("max = %v", g1[5])
	}
}

func TestHashAggEmptyInput(t *testing.T) {
	scan := &Scan{Name: "t", Rows: nil, Sch: intSchema("g", "v")}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "s"}}
	got := runOp(t, NewHashAgg("agg", scan, gb, aggs, intSchema("g", "s")), nil)
	if len(got) != 0 {
		t.Fatalf("empty input produced %d groups", len(got))
	}
}

func TestHashAggNullHandling(t *testing.T) {
	rows := []types.Tuple{
		{types.Int(1), types.Null()},
		{types.Int(1), types.Int(5)},
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v")}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}}}
	aggs := []plan.AggSpec{
		{Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "s"},
		{Func: plan.AggCount, Arg: &expr.ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, Name: "c"},
	}
	got := runOp(t, NewHashAgg("agg", scan, gb, aggs, intSchema("g", "s", "c")), nil)
	if s, _ := got[0][1].AsInt(); s != 5 {
		t.Fatalf("sum over null = %v", got[0][1])
	}
	if c, _ := got[0][2].AsInt(); c != 1 {
		t.Fatalf("count must skip nulls: %v", got[0][2])
	}
}

func TestDistinctPipelined(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{1}, []int64{3}, []int64{2})
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}
	d := &Distinct{Name: "d", Child: scan,
		Point: &Point{Name: "d", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{-1}, StateEqIDs: []int{-1}, DomainDistinct: []float64{0}}}
	got := runOp(t, d, nil)
	vals := sortedInts(got, 0)
	if len(vals) != 3 || vals[0] != 1 || vals[2] != 3 {
		t.Fatalf("distinct = %v", vals)
	}
	if d.Point.StoredRows() != 3 {
		t.Fatalf("distinct state = %d", d.Point.StoredRows())
	}
}

func TestShipChargesNetwork(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2})
	link := &network.Link{BytesPerSec: 1 << 20, Latency: 5 * time.Millisecond}
	s := &Ship{Name: "s", Child: &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}, Link: link}
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	got, err := Run(ctx, s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("ship lost rows: %d", len(got))
	}
	if reg.NetworkBytes.Load() == 0 || link.SentBytes() == 0 {
		t.Fatal("network traffic not accounted")
	}
}

func TestShipFilterPrunesBeforeWire(t *testing.T) {
	rows := intRows([]int64{1}, []int64{2}, []int64{3}, []int64{4})
	link := &network.Link{BytesPerSec: 1 << 30}
	pt := &Point{Name: "ship", Bank: NewFilterBank(), EqIDs: []int{0}, StateEqIDs: []int{0}, DomainDistinct: []float64{4}, Site: 1}
	hs := filter.NewHashSet(4)
	hs.Add(types.Int(2).AppendKey(nil))
	pt.Bank.Attach([]int{0}, hs)
	s := &Ship{Name: "s", Child: &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}, Link: link, Point: pt}
	reg := stats.NewRegistry()
	got, err := Run(NewContext(reg, nil), s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("ship filter kept %d rows", len(got))
	}
	one := types.Tuple{types.Int(2)}.MemSize()
	if link.SentBytes() != int64(one) {
		t.Fatalf("sent %d bytes, want %d (only the surviving tuple)", link.SentBytes(), one)
	}
}

func TestCancellation(t *testing.T) {
	rows := make([]types.Tuple, 100000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("a"),
		Delay: &DelayConfig{EveryN: 100, Pause: time.Millisecond}}
	ctx := NewContext(stats.NewRegistry(), nil)
	out := scan.Start(ctx)
	<-out // take one batch
	ctx.Cancel()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return // channel closed: scan stopped promptly
			}
		case <-deadline:
			t.Fatal("scan did not stop after cancellation")
		}
	}
}

// TestPacedScanDeadlineNoLeak binds a short std-context deadline to a paced
// scan feeding a partitioned aggregation: the run must surface
// context.DeadlineExceeded and reclaim every goroutine (the sequential
// source, the router, the partition workers, the finisher, the watcher).
func TestPacedScanDeadlineNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	rows := make([]types.Tuple, 200000)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 97)), types.Int(int64(i))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: intSchema("g", "v"),
		Delay: &DelayConfig{EveryN: 128, Pause: time.Millisecond}}
	gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = 4
	std, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	stop := ctx.BindStd(std)
	_, err := Run(ctx, NewHashAgg("agg", scan, gb, aggs, intSchema("g", "c")))
	stop()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	waitGoroutines(t, baseline)
}

func TestFilterBankAttachReplace(t *testing.T) {
	b := NewFilterBank()
	h1 := filter.NewHashSet(4)
	h1.Add(types.Int(1).AppendKey(nil))
	h2 := filter.NewHashSet(4)
	h2.Add(types.Int(2).AppendKey(nil))

	b.Attach([]int{0}, h1)
	b.Attach([]int{0}, h1) // duplicate ignored
	if b.Len() != 1 {
		t.Fatalf("bank len = %d", b.Len())
	}
	keep := b.probe(types.Tuple{types.Int(1)})
	if !keep {
		t.Fatal("member pruned")
	}
	keep = b.probe(types.Tuple{types.Int(2)})
	if keep {
		t.Fatal("non-member passed")
	}
	b.Replace([]int{0}, h1, h2)
	if b.Len() != 1 {
		t.Fatalf("replace changed count: %d", b.Len())
	}
	keep = b.probe(types.Tuple{types.Int(2)})
	if !keep {
		t.Fatal("replacement not effective")
	}
	// Replace of a missing summary attaches.
	h3 := filter.NewHashSet(4)
	b.Replace([]int{1}, h1, h3)
	if b.Len() != 2 {
		t.Fatalf("replace-miss should attach: %d", b.Len())
	}
}

func TestPointStateIter(t *testing.T) {
	l := intRows([]int64{1, 0}, []int64{2, 0})
	r := intRows([]int64{9, 0})
	j := buildJoin(l, r)
	// Gate the right input on the left side's completion so the left side
	// is fully buffered before the right side's completion can trigger the
	// short-circuit optimization.
	j.Right = &gated{child: j.Right, cond: func() bool { return j.LPoint.Done() }}
	runOp(t, j, nil)
	var seen []int64
	j.LPoint.IterState(func(tp types.Tuple) bool {
		v, _ := tp[0].AsInt()
		seen = append(seen, v)
		return true
	})
	sort.Slice(seen, func(i, k int) bool { return seen[i] < seen[k] })
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("state iter = %v", seen)
	}
	// Early stop.
	count := 0
	j.LPoint.IterState(func(types.Tuple) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

// controllerRecorder verifies the Controller lifecycle ordering.
type controllerRecorder struct {
	mu     sync.Mutex
	events []string
}

func (c *controllerRecorder) add(e string) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *controllerRecorder) RegisterPoint(p *Point) { c.add("reg:" + p.Name) }
func (c *controllerRecorder) Begin()                 { c.add("begin") }
func (c *controllerRecorder) PointDone(p *Point)     { c.add("done:" + p.Name) }
func (c *controllerRecorder) End()                   { c.add("end") }

func TestControllerLifecycle(t *testing.T) {
	j := buildJoin(intRows([]int64{1, 0}), intRows([]int64{1, 0}))
	rec := &controllerRecorder{}
	ctx := NewContext(stats.NewRegistry(), rec)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	if _, err := Run(ctx, j); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rec.events) < 5 {
		t.Fatalf("events = %v", rec.events)
	}
	if rec.events[0] != "reg:l" || rec.events[1] != "reg:r" || rec.events[2] != "begin" {
		t.Fatalf("setup ordering wrong: %v", rec.events)
	}
	if rec.events[len(rec.events)-1] != "end" {
		t.Fatalf("missing end: %v", rec.events)
	}
	if len(ctx.Points()) != 2 {
		t.Fatal("points not registered")
	}
}

func TestBushyPlanEndToEnd(t *testing.T) {
	// (A ⋈ B) ⋈ (C ⋈ D): four scans joined pairwise, then together.
	mk := func(name string, keyStart int64) *Scan {
		rows := make([]types.Tuple, 10)
		for i := range rows {
			rows[i] = types.Tuple{types.Int(keyStart + int64(i)), types.Int(int64(i))}
		}
		return &Scan{Name: name, Rows: rows, Sch: intSchema("k", name)}
	}
	join := func(name string, l, r Op) *HashJoin {
		return NewHashJoin(name, l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	}
	ab := join("ab", mk("a", 0), mk("b", 0))
	cd := join("cd", mk("c", 5), mk("d", 5))
	top := join("top", ab, cd)
	got := runOp(t, top, nil)
	// Keys 5..9 overlap: ab has 0..9, cd has 5..14 → 5 results.
	if len(got) != 5 {
		t.Fatalf("bushy join rows = %d, want 5", len(got))
	}
}

func TestStatsCounts(t *testing.T) {
	j := buildJoin(intRows([]int64{1, 0}, []int64{2, 0}), intRows([]int64{1, 0}))
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	rows, err := Run(ctx, j)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rows) != 1 {
		t.Fatal("unexpected result")
	}
	var stateRows int64
	for _, op := range reg.Ops() {
		stateRows += op.StateRows.Load()
	}
	// At most 3 tuples buffered; the short-circuit optimization may skip
	// some, but at least one side must have buffered.
	if stateRows < 1 || stateRows > 3 {
		t.Fatalf("state rows = %d, want 1..3", stateRows)
	}
	if reg.PeakStateBytes() <= 0 {
		t.Fatal("peak state must be positive")
	}
}

func TestManyKeysStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 20000
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
		rrows[i] = types.Tuple{types.Int(int64(n - 1 - i)), types.Int(0)}
	}
	got := runOp(t, buildJoin(lrows, rrows), nil)
	if len(got) != n {
		t.Fatalf("stress join rows = %d, want %d", len(got), n)
	}
}

func TestJoinOnStoreCoversShortCircuitedTuples(t *testing.T) {
	// Even when buffering stops, OnStore must see every passing tuple so
	// Feed-Forward working sets stay complete.
	small := intRows([]int64{1, 0})
	big := make([]types.Tuple, 1000)
	for i := range big {
		big[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
	}
	var lp *Point
	l := &Scan{Name: "l", Rows: small, Sch: intSchema("a", "x")}
	r := &gated{child: &Scan{Name: "r", Rows: big, Sch: intSchema("a", "y")},
		cond: func() bool { return lp.Done() }}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	lp = j.LPoint
	var rSeen int64
	j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0}, EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{0, 0}}
	j.RPoint.OnStore = func(int, types.Tuple) { rSeen++ }
	runOp(t, j, nil)
	if rSeen != 1000 {
		t.Fatalf("OnStore saw %d of 1000 tuples", rSeen)
	}
	if j.RPoint.StoredRows() != 0 {
		t.Fatalf("expected short-circuit, stored %d", j.RPoint.StoredRows())
	}
}

func TestScanStatsName(t *testing.T) {
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	if _, err := Run(ctx, &Scan{Name: "part", Rows: intRows([]int64{1}), Sch: intSchema("a")}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, op := range reg.Ops() {
		if op.Name == "scan:part" {
			found = true
			if op.Out.Load() != 1 {
				t.Fatalf("scan out = %d", op.Out.Load())
			}
		}
	}
	if !found {
		t.Fatal("scan stats missing")
	}
}
