package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/types"
)

// joinSpillCase is one leg of the join spill differential: nl left and nr
// right rows with payloads of pad bytes; routed wires the left scan to its
// input over a table with column vectors, so it routes for the join and the
// left table holds row ids into the scanned rows, charged from the row-size
// sidecar, while the right side keeps its own header store; gate (routed
// only) holds the right input back until the left one is done, so the left
// side is buffered in full and every right row reaching a spilled partition
// is a post-short-circuit arrival — each spilled partition's runs then hold
// exactly its rows of either side, and the smaller side is the merge's build
// side; noResidual drops the residual predicate.
type joinSpillCase struct {
	name                     string
	nl, nr, pad              int
	routed, gate, noResidual bool
	divs                     []int64 // budgets: the unbounded peak over each
	onePass                  bool    // every merge fits one pass (else some fan out)
}

// spillJoin builds c's join, whose state is dominated by a wide string
// payload column, with duplicate keys (multi-match chains) and the residual
// predicate p_left < p_right, so the spill path is exercised on a
// multi-match shape.
func spillJoin(c joinSpillCase) *HashJoin {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "x", Kind: types.KindString},
		types.Column{Table: "t", Name: "p", Kind: types.KindInt},
	)
	filler := strings.Repeat("x", c.pad)
	lrows := make([]types.Tuple, c.nl)
	rrows := make([]types.Tuple, c.nr)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i % 211)), types.Str(filler), types.Int(int64(i))}
	}
	for i := range rrows {
		rrows[i] = types.Tuple{types.Int(int64((c.nr - 1 - i) % 211)), types.Str(filler), types.Int(int64(i))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: sch}
	var r Op = &Scan{Name: "r", Rows: rrows, Sch: sch}
	var res expr.Expr
	if !c.noResidual {
		res = &expr.Binary{Op: expr.OpLt,
			L: &expr.ColRef{Idx: 2, Col: types.Column{Kind: types.KindInt}},
			R: &expr.ColRef{Idx: 5, Col: types.Column{Kind: types.KindInt}},
		}
	}
	if c.routed {
		l.Vecs = &catalog.Table{Name: "l", Schema: sch, Rows: lrows}
		l.Point = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, Schema: sch,
			EqIDs: []int{0, -1, -1}, StateEqIDs: []int{0, -1, -1}, KeyCols: []int{0}, DomainDistinct: []float64{211, 0, 0}}
		if c.gate {
			r = &gated{child: r, cond: l.Point.Done}
		}
	}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), res)
	j.LPoint = l.Point
	return j
}

// runSpill runs op under the given memory budget, returning the rows and the
// Context so callers can read the accounting counters.
func runSpill(op Op, budget int64, parallelism int) ([]types.Tuple, *Context, error) {
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = parallelism
	ctx.MemBudget = budget
	rows, err := Run(ctx, op)
	ctx.Cleanup()
	return rows, ctx, err
}

// TestJoinSpillDifferential is the core out-of-core acceptance property:
// a budget-capped run must produce byte-identical results to the unbounded
// run while actually spilling, and with the tracked peak held near the
// budget — with both sides keeping their own stores, with a routed side as
// the merge's probe side or (gated) as its build side, at a budget that
// makes merges fan out into several sub-bucket passes, and without a
// residual. Every merge reads each run at least once, and more than once
// exactly when it fans out.
func TestJoinSpillDifferential(t *testing.T) {
	for _, c := range []joinSpillCase{
		{name: "own stores", nl: 4000, nr: 4000, pad: 64, divs: []int64{4, 16}},
		{name: "routed", nl: 4000, nr: 4000, pad: 64, routed: true, divs: []int64{4, 16}},
		{name: "routed build side", nl: 1000, nr: 4000, pad: 64, routed: true, gate: true, divs: []int64{4}},
		{name: "routed probe side", nl: 4000, nr: 100, pad: 64, routed: true, gate: true, divs: []int64{4}, onePass: true},
		{name: "no residual", nl: 4000, nr: 1000, pad: 64, routed: true, gate: true, noResidual: true, divs: []int64{4}},
	} {
		testJoinSpillDifferential(t, c)
	}
}

func testJoinSpillDifferential(t *testing.T, c joinSpillCase) {
	want, base, err := runSpill(spillJoin(c), 0, 4)
	if err != nil {
		t.Fatalf("%s: unbounded run: %v", c.name, err)
	}
	if base.SpillEvents() != 0 {
		t.Fatalf("%s: unbounded run spilled %d times", c.name, base.SpillEvents())
	}
	peak := base.PeakTrackedBytes()
	if peak == 0 || len(want) == 0 {
		t.Fatalf("%s: unbounded run tracked %d state bytes, returned %d rows", c.name, peak, len(want))
	}
	wantS := rowStrings(want)

	for _, div := range c.divs {
		budget := peak / div
		label := fmt.Sprintf("%s budget=peak/%d", c.name, div)
		got, ctx, err := runSpill(spillJoin(c), budget, 4)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, wantS, rowStrings(got))
		if ctx.SpillEvents() == 0 {
			t.Fatalf("%s: no spill events at budget %d (peak %d)", label, budget, peak)
		}
		op := findOp(ctx.Stats, "join:j.left")
		written, read := op.SpillBytes.Load(), op.SpillRead.Load()
		if written == 0 || written != ctx.SpillBytes() {
			t.Fatalf("%s: join wrote %d spill bytes, query %d", label, written, ctx.SpillBytes())
		}
		if (read == written) != c.onePass || read < written {
			t.Fatalf("%s: merges read back %d of the %d bytes written; one pass each: %v", label, read, written, c.onePass)
		}
		t.Logf("%s: read back %d of %d bytes written, %d events", label, read, written, ctx.SpillEvents())
		// The budget is honored up to one batch of transient growth per
		// partition (growth is checked after each scatter is absorbed);
		// a routing scan scatters a whole chunk of ≈ 190 B rows at a time.
		slack := budget/2 + 128<<10
		if c.routed {
			slack += scanChunkRows * 200
		}
		if p := ctx.PeakTrackedBytes(); p > budget+slack {
			t.Fatalf("%s: peak tracked %d exceeds budget %d + slack %d", label, p, budget, slack)
		}
	}
}

// spillAgg builds a grouped aggregation whose state is dominated by wide
// string group keys, with sum/count/min/max/avg accumulators.
func spillAgg(n, groups int) *HashAgg {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "g", Kind: types.KindInt},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
		types.Column{Table: "t", Name: "v", Kind: types.KindInt},
	)
	keys := make([]string, groups)
	for i := range keys {
		keys[i] = fmt.Sprintf("group-%04d-%s", i, strings.Repeat("k", 64))
	}
	rows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		g := i % groups
		rows[i] = types.Tuple{types.Int(int64(g)), types.Str(keys[g]), types.Int(int64(i % 1000))}
	}
	scan := &Scan{Name: "t", Rows: rows, Sch: sch}
	gb := []expr.Expr{
		&expr.ColRef{Idx: 0, Col: types.Column{Name: "g", Kind: types.KindInt}},
		&expr.ColRef{Idx: 1, Col: types.Column{Name: "s", Kind: types.KindString}},
	}
	v := func() expr.Expr { return &expr.ColRef{Idx: 2, Col: types.Column{Kind: types.KindInt}} }
	aggs := []plan.AggSpec{
		{Func: plan.AggSum, Arg: v(), Name: "sum"},
		{Func: plan.AggCountStar, Name: "cnt"},
		{Func: plan.AggMin, Arg: v(), Name: "min"},
		{Func: plan.AggMax, Arg: v(), Name: "max"},
		{Func: plan.AggAvg, Arg: v(), Name: "avg"},
	}
	osch := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "sum", Kind: types.KindInt},
		types.Column{Name: "cnt", Kind: types.KindInt},
		types.Column{Name: "min", Kind: types.KindInt},
		types.Column{Name: "max", Kind: types.KindInt},
		types.Column{Name: "avg", Kind: types.KindFloat},
	)
	return NewHashAgg("a", scan, gb, aggs, osch)
}

// spillDistinct builds a dedup over wide two-column tuples with duplicates.
func spillDistinct(n, uniq int) *Distinct {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "s", Kind: types.KindString},
	)
	keys := make([]string, uniq)
	for i := range keys {
		keys[i] = fmt.Sprintf("val-%04d-%s", i, strings.Repeat("d", 64))
	}
	rows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		u := i % uniq
		rows[i] = types.Tuple{types.Int(int64(u)), types.Str(keys[u])}
	}
	return &Distinct{Name: "d", Child: &Scan{Name: "t", Rows: rows, Sch: sch}}
}

// TestAggSpillDifferential: capped aggregation must merge spilled group
// snapshots back to exactly the unbounded result.
func TestAggSpillDifferential(t *testing.T) {
	const n, groups = 24000, 1500
	want, base, err := runSpill(spillAgg(n, groups), 0, 4)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if len(want) != groups {
		t.Fatalf("baseline groups = %d, want %d", len(want), groups)
	}
	peak := base.PeakTrackedBytes()
	if peak == 0 {
		t.Fatal("unbounded run tracked no state bytes")
	}
	wantS := rowStrings(want)
	checkCapped(t, peak, wantS, func(budget int64) ([]types.Tuple, *Context, error) {
		return runSpill(spillAgg(n, groups), budget, 4)
	})
}

// checkCapped runs a plan at a half, a quarter and a sixteenth of its
// unbounded peak and checks it returns the unbounded rows, spills, merges in
// more than one sub-bucket pass (F > 1), and holds the peak near the budget.
func checkCapped(t *testing.T, peak int64, want []string, run func(budget int64) ([]types.Tuple, *Context, error)) {
	t.Helper()
	for _, div := range []int64{2, 4, 16} {
		budget := peak / div
		label := fmt.Sprintf("budget=peak/%d", div)
		got, ctx, err := run(budget)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, want, rowStrings(got))
		if ctx.SpillEvents() == 0 {
			t.Fatalf("%s: no spill events at budget %d (peak %d)", label, budget, peak)
		}
		// Each sub-bucket pass reads the whole run: the merge fanned out when
		// it read back more than was written.
		var written, read int64
		for _, op := range ctx.Stats.Ops() {
			written += op.SpillBytes.Load()
			read += op.SpillRead.Load()
		}
		if written != ctx.SpillBytes() || read <= written {
			t.Fatalf("%s: operators wrote %d spill bytes (query: %d) and read back %d; want a fan-out", label, written, ctx.SpillBytes(), read)
		}
		slack := budget/2 + 128<<10
		if p := ctx.PeakTrackedBytes(); p > budget+slack {
			t.Fatalf("%s: peak tracked %d exceeds budget %d + slack %d", label, p, budget, slack)
		}
	}
}

// TestDistinctSpillDifferential: capped dedup must emit each distinct tuple
// exactly once — pipelined before the first eviction, replayed from the run
// after.
func TestDistinctSpillDifferential(t *testing.T) {
	const n, uniq = 20000, 2500
	want, base, err := runSpill(spillDistinct(n, uniq), 0, 4)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if len(want) != uniq {
		t.Fatalf("baseline distinct = %d, want %d", len(want), uniq)
	}
	checkCapped(t, base.PeakTrackedBytes(), rowStrings(want), func(budget int64) ([]types.Tuple, *Context, error) {
		return runSpill(spillDistinct(n, uniq), budget, 4)
	})
}

// TestAggSpillTinyBudget: grouped aggregation under an unworkable budget
// fails with the typed error.
func TestAggSpillTinyBudget(t *testing.T) {
	_, _, err := runSpill(spillAgg(24000, 1500), 2<<10, 4)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
}

// TestDistinctSpillTinyBudget: dedup under an unworkable budget fails with
// the typed error.
func TestDistinctSpillTinyBudget(t *testing.T) {
	_, _, err := runSpill(spillDistinct(20000, 2500), 1<<10, 4)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
}

// TestJoinSpillTinyBudget: a budget too small for even the maximum merge
// fan-out must fail promptly with a typed *BudgetError, not thrash.
func TestJoinSpillTinyBudget(t *testing.T) {
	rows, ctx, err := runSpill(spillJoin(joinSpillCase{nl: 3000, nr: 3000, pad: 128}), 4<<10, 4)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError (rows=%d spills=%d spillBytes=%d peak=%d)",
			err, len(rows), ctx.SpillEvents(), ctx.SpillBytes(), ctx.PeakTrackedBytes())
	}
	if be.Need <= 4<<10 {
		t.Fatalf("BudgetError.Need = %d, not above the budget", be.Need)
	}
}

// TestAggStateAccounting pins what the aggregation accounts to what it holds:
// after every fold and after an eviction — an explicit one, then one the
// memory budget triggers — the operator's StateBytes and the query's tracked
// bytes are the key index's MemSize plus, per group, its key values' MemSize
// and its column entries: 8 B per count, 16 per sum or avg, 8 + 40 per min or
// max.
func TestAggStateAccounting(t *testing.T) {
	f := newRoutedFixture(3000)
	aggs, _ := routedAggs(f.sch)
	gb := []int{1, 3} // k2, s: 91 groups, string keys of varying size
	h := NewHashAgg("a", nil, []expr.Expr{&expr.ColRef{Idx: 1, Col: f.sch.Cols[1]},
		&expr.ColRef{Idx: 3, Col: f.sch.Cols[3]}}, aggs, nil)
	var colBytes int64
	for _, a := range aggs {
		switch a.Func {
		case plan.AggCount, plan.AggCountStar:
			colBytes += 8
		case plan.AggMin, plan.AggMax:
			colBytes += 48
		default:
			colBytes += 16
		}
	}
	ctx := NewContext(stats.NewRegistry(), nil)
	defer ctx.Cleanup()
	op := ctx.Stats.NewOp("agg:a")
	op.SetPartitions(1)
	pt := &aggPart{aggCore: aggCore{aggState: newAggState(len(gb), aggs)}}
	w := h.newWorker(0, nil)
	check := func(when string) {
		t.Helper()
		want := int64(pt.idx.MemSize())
		for g := 0; g < pt.idx.Len(); g++ {
			for _, v := range pt.key(g) {
				want += int64(v.MemSize())
			}
			want += colBytes
		}
		if got := op.StateBytes.Current(); got != want || ctx.TrackedBytes() != got {
			t.Fatalf("%s: StateBytes %d, tracked %d; the index and %d groups hold %d", when, got, ctx.TrackedBytes(), pt.idx.Len(), want)
		}
	}
	fold := func(lo, hi int) {
		sb := getScatter(0)
		for _, r := range f.rows[lo:hi] {
			kh, key := keyOf(r, gb)
			sb.add(r, kh, key)
		}
		if err := pt.absorb(ctx, op, w, sb, 1); err != nil {
			t.Fatal(err)
		}
	}
	for lo := 0; lo < 1000; lo += BatchSize {
		fold(lo, min(lo+BatchSize, 1000))
		check("after a fold")
	}
	if pt.idx.Len() != 91 {
		t.Fatalf("%d groups, want 91", pt.idx.Len())
	}
	if err := pt.evict(ctx, op, nil); err != nil {
		t.Fatal(err)
	}
	check("after an eviction")
	fold(1000, 2000)
	check("after folding past an eviction")
	ctx.MemBudget = 1 // every fold now evicts
	fold(2000, 3000)
	check("after an eviction under the budget")
	if n := ctx.SpillEvents(); n != 2 || pt.idx.Len() != 0 {
		t.Fatalf("%d evictions, %d groups left; want 2 and 0", n, pt.idx.Len())
	}
}

// spillNarrowChain builds a Q4A-shaped plan — two stacked joins, each emitting
// a pruned subset of its inputs' columns — over inputs whose wide string
// payloads fill the join state but are read by nothing above the joins:
//
//	top = (o ⋈_okey l) ⋈_skey s,  o(okey, pad, x)  l(okey, skey, pad, y)  s(skey, pad, w)
//
// The lower join emits (x, skey, y), the top one (x, y, w) with the residual
// x < w over its emitted row. want is the answer by nested maps.
func spillNarrowChain(n int) (top *HashJoin, want []string) {
	str := func(name string) types.Column { return types.Column{Table: "t", Name: name, Kind: types.KindString} }
	num := func(name string) types.Column { return types.Column{Table: "t", Name: name, Kind: types.KindInt} }
	pad := types.Str(strings.Repeat("p", 64))
	orows := make([]types.Tuple, n)
	lrows := make([]types.Tuple, n)
	for i := range orows {
		orows[i] = types.Tuple{types.Int(int64(i % 401)), pad, types.Int(int64(i))}
		lrows[i] = types.Tuple{types.Int(int64(i * 7 % 401)), types.Int(int64(i % 53)), pad, types.Int(int64(-i))}
	}
	srows := make([]types.Tuple, 106)
	for i := range srows {
		srows[i] = types.Tuple{types.Int(int64(i % 53)), pad, types.Int(int64(i * 19))}
	}
	o := &Scan{Name: "o", Rows: orows, Sch: types.NewSchema(num("okey"), str("opad"), num("x"))}
	l := &Scan{Name: "l", Rows: lrows, Sch: types.NewSchema(num("okey"), num("skey"), str("lpad"), num("y"))}
	s := &Scan{Name: "s", Rows: srows, Sch: types.NewSchema(num("skey"), str("spad"), num("w"))}
	lower := NewHashJoin("lower", o, l, []int{0}, []int{0}, []int{2, 4, 6}, nil)
	res := &expr.Binary{Op: expr.OpLt, L: intCol(0), R: intCol(2)}
	top = NewHashJoin("top", lower, s, []int{1}, []int{0}, []int{0, 2, 5}, res)

	for _, or := range orows {
		for _, lr := range lrows {
			if or[0].I != lr[0].I {
				continue
			}
			for _, sr := range srows {
				if lr[1].I == sr[0].I && or[2].I < sr[2].I {
					want = append(want, types.Tuple{or[2], lr[3], sr[2]}.String())
				}
			}
		}
	}
	sort.Strings(want)
	return top, want
}

// TestNarrowJoinChainSpill: a pruned multi-join under a quarter of its
// unbounded peak spills, and the merge phase gathers the Out columns of its
// cross-epoch pairs exactly as phase 1 does — both runs return the reference.
func TestNarrowJoinChainSpill(t *testing.T) {
	const n = 2000
	top, want := spillNarrowChain(n)
	if len(want) == 0 {
		t.Fatal("empty reference")
	}
	got, base, err := runSpill(top, 0, 4)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	sameRows(t, "unbounded", want, rowStrings(got))
	budget := base.PeakTrackedBytes() / 4
	top, _ = spillNarrowChain(n)
	got, ctx, err := runSpill(top, budget, 4)
	if err != nil {
		t.Fatalf("budget %d: %v", budget, err)
	}
	if ctx.SpillEvents() == 0 {
		t.Fatalf("no spill events at budget %d (peak %d)", budget, base.PeakTrackedBytes())
	}
	sameRows(t, fmt.Sprintf("budget=%d", budget), want, rowStrings(got))
}

// spillPartRows are a routed side's table rows — key i%1000, a 64-byte
// payload, i — with their rowSource, and the other side's rows: seven per
// key 97·k for k < 10.
func spillPartRows(n int) (*rowSource, []types.Tuple) {
	pad := types.Str(strings.Repeat("x", 64))
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 1000)), pad, types.Int(int64(i))}
	}
	var small []types.Tuple
	for k := int64(0); k < 10; k++ {
		for b := int64(0); b < 7; b++ {
			small = append(small, types.Tuple{types.Int(k * 97), types.Int(b)})
		}
	}
	return &rowSource{rows: rows, fixed: int64(rows[0].MemSize())}, small
}

// refScatter routes rows [lo, hi) of src as a routing scan would.
func refScatter(src *rowSource, lo, hi int) *scatter {
	sb := getScatter(0)
	sb.src = src
	for rid := lo; rid < hi; rid++ {
		k := src.rows[rid][0].I
		sb.addRow(int32(rid), types.HashIntKey(k), []int64{k})
	}
	return sb
}

// TestJoinSpillRefRecords drives one join partition by hand along the path
// of a routed side that outgrows memory before the other side completes:
// half of the routed side is buffered and evicted, the other side is
// buffered in full, and the routed side's second half arrives after that
// and is spilled as arrivals, past several frames. The routed side's run
// must hold ref records (well under the bytes of the tuple encoding), the
// join's SpillBytes must equal the bytes in both runs, the merge must read
// each run once, and it must emit exactly the cross-epoch pairs — the
// evicted half against the other side.
func TestJoinSpillRefRecords(t *testing.T) {
	const n = 20000
	src, small := spillPartRows(n)
	ctx := NewContext(stats.NewRegistry(), nil)
	defer ctx.Cleanup()
	ops := [2]*stats.OpStats{ctx.Stats.NewOp("join:j.left"), ctx.Stats.NewOp("join:j.right")}
	var jc joinCore
	insert := func(sb *scatter) {
		m := sb.len()
		pre := jc.tables[sb.side].memBytes()
		jc.srcs[sb.side] = sb.src
		jc.tables[sb.side].insertBatch(sb, jc.ticket, make([]int32, m), make([]bool, m))
		jc.ticket += uint64(m)
		delta := jc.tables[sb.side].memBytes() - pre
		ctx.account(delta)
		ops[sb.side].StateBytes.Add(delta)
		jc.bytes += delta
		putScatter(sb)
	}
	insert(refScatter(src, 0, n/2))
	if err := jc.evict(ctx, ops, [2]*Point{}); err != nil {
		t.Fatal(err)
	}
	other := getScatter(1)
	var kb []byte
	for _, r := range small {
		kb = types.AppendIntKey(kb[:0], r[0].I)
		other.add(r, types.HashIntKey(r[0].I), kb)
	}
	insert(other)
	late := refScatter(src, n/2, n)
	if err := jc.spillArrivals(late, jc.ticket); err != nil {
		t.Fatal(err)
	}
	jc.ticket += uint64(late.len())
	putScatter(late)
	runs := jc.runs

	var got []types.Tuple
	g := newRowGather([]int{0, 2, 4}, 3) // left k, left i, right b
	if !jc.mergeSpill(ctx, ops, "join:j.left", &g, nil, func(b Batch) bool {
		got = append(got, b.Tuples...)
		return true
	}) {
		t.Fatalf("merge failed: %v", ctx.Err())
	}
	var want []types.Tuple
	for _, l := range src.rows[:n/2] {
		for _, r := range small {
			if l[0] == r[0] {
				want = append(want, types.Tuple{l[0], l[2], r[1]})
			}
		}
	}
	sameRows(t, "merged pairs", rowStrings(want), rowStrings(got))

	tuples, err := spill.NewRun(t.TempDir(), "tuples")
	if err != nil {
		t.Fatal(err)
	}
	defer tuples.Close()
	for rid := 0; rid < n; rid++ {
		k := src.rows[rid][0].I
		kb = types.AppendIntKey(kb[:0], k)
		if err := tuples.Append(&spill.Record{Seq: uint64(rid + 1), Hash: types.HashIntKey(k), Key: kb, Tuple: src.rows[rid]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tuples.Flush(); err != nil {
		t.Fatal(err)
	}
	if runs[0].Records() != n || 3*runs[0].Bytes() > tuples.Bytes() {
		t.Fatalf("routed run: %d records in %d B; as tuples they take %d B", runs[0].Records(), runs[0].Bytes(), tuples.Bytes())
	}
	written := runs[0].Bytes() + runs[1].Bytes()
	if ops[0].SpillBytes.Load() != written || ctx.SpillBytes() != written || ops[0].SpillRead.Load() != written {
		t.Fatalf("runs hold %d B; the join counted %d written and %d read, the query %d",
			written, ops[0].SpillBytes.Load(), ops[0].SpillRead.Load(), ctx.SpillBytes())
	}
	if ctx.TrackedBytes() != 0 || jc.runs != [2]*spill.Run{} || jc.srcs != [2]*rowSource{} {
		t.Fatalf("after the merge: %d B tracked, runs %v, sources %v", ctx.TrackedBytes(), jc.runs, jc.srcs)
	}
}

// TestJoinMergeProbeZeroAllocs pins the merge's header-only probe pass: a
// run of ref records none of which matches the build table costs a constant
// number of allocations per pass (the reader's file and buffers), however
// many records it holds: no decode and no allocation per record.
func TestJoinMergeProbeZeroAllocs(t *testing.T) {
	src, _ := spillPartRows(40000)
	ctx := NewContext(stats.NewRegistry(), nil)
	defer ctx.Cleanup()
	op := ctx.Stats.NewOp("join:j.left")
	var bt joinTable
	kb := types.AppendIntKey(nil, -1)
	bt.insert(types.HashIntKey(-1), kb, types.Tuple{types.Int(-1)}, 1)
	pass := func(records int) float64 {
		jc := joinCore{srcs: [2]*rowSource{src}}
		if err := ctx.ensureRun(&jc.runs[0], "join", op); err != nil {
			t.Fatal(err)
		}
		defer jc.closeRuns()
		run := jc.runs[0]
		sb := refScatter(src, 0, records)
		if err := jc.spillArrivals(sb, 0); err != nil {
			t.Fatal(err)
		}
		putScatter(sb)
		var scratch types.Tuple
		pair := func(types.Tuple, types.Tuple) bool { t.Fatal("a non-matching record matched"); return false }
		return testing.AllocsPerRun(5, func() {
			readRun(run, op, func(rd *spill.Reader) error {
				_, err := jc.probeSub(rd, 0, 0, 1, &bt, &scratch, pair)
				return err
			})
		})
	}
	// Ten times the records is 36 k more; the frame buffer may still regrow
	// for a frame a few bytes longer than any before.
	if few, many := pass(4000), pass(40000); few > 10 || many > few+3 {
		t.Fatalf("probe pass allocates %.0f times over 4 k records and %.0f over 40 k, want a few either way", few, many)
	}
}
