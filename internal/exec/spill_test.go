package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// spillJoin builds a join whose state is dominated by a wide string payload
// column, with duplicate keys (multi-match chains) and a residual predicate,
// so the spill path is exercised on the same shape the differential morsel
// tests use. routed wires the left scan to its input over a table with
// column vectors, so on the chan engine it routes for the join and the left
// table holds row ids into the scanned rows, charged from the row-size
// sidecar, while the right side keeps its own header store.
func spillJoin(n, pad int, routed bool) *HashJoin {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "a", Kind: types.KindInt},
		types.Column{Table: "t", Name: "x", Kind: types.KindString},
		types.Column{Table: "t", Name: "p", Kind: types.KindInt},
	)
	filler := strings.Repeat("x", pad)
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % 211)), types.Str(filler), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64((n - 1 - i) % 211)), types.Str(filler), types.Int(int64(i))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: sch}
	r := &Scan{Name: "r", Rows: rrows, Sch: sch}
	res := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 2, Col: types.Column{Kind: types.KindInt}},
		R: &expr.ColRef{Idx: 5, Col: types.Column{Kind: types.KindInt}},
	}
	j := NewHashJoin("j", l, r, []int{0}, []int{0}, res)
	if routed {
		l.Vecs = &catalog.Table{Name: "l", Schema: sch, Rows: lrows}
		l.Point = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, Schema: sch,
			EqIDs: []int{0, -1, -1}, StateEqIDs: []int{0, -1, -1}, KeyCols: []int{0}, DomainDistinct: []float64{211, 0, 0}}
		j.LPoint = l.Point
	}
	return j
}

// runSpill runs op under the given scheduler and memory budget, returning
// the rows and the Context so callers can read the accounting counters.
func runSpill(op Op, budget int64, parallelism int, scheduler string) ([]types.Tuple, *Context, error) {
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = parallelism
	ctx.Scheduler = scheduler
	ctx.MemBudget = budget
	rows, err := Run(ctx, op)
	ctx.Cleanup()
	return rows, ctx, err
}

// TestJoinSpillDifferential is the core out-of-core acceptance property:
// a budget-capped run must produce byte-identical results to the unbounded
// run, on both schedulers, while actually spilling, and with the tracked
// peak held near the budget.
func TestJoinSpillDifferential(t *testing.T) {
	for _, routed := range []bool{false, true} {
		testJoinSpillDifferential(t, routed)
	}
}

func testJoinSpillDifferential(t *testing.T, routed bool) {
	const n = 4000
	want, base, err := runSpill(spillJoin(n, 64, routed), 0, 4, SchedulerChan)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if base.SpillEvents() != 0 {
		t.Fatalf("unbounded run spilled %d times", base.SpillEvents())
	}
	peak := base.PeakTrackedBytes()
	if peak == 0 {
		t.Fatal("unbounded run tracked no state bytes")
	}
	wantS := rowStrings(want)

	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		for _, div := range []int64{4, 16} {
			budget := peak / div
			got, ctx, err := runSpill(spillJoin(n, 64, routed), budget, 4, sched)
			if err != nil {
				t.Fatalf("%s budget=peak/%d: %v", sched, div, err)
			}
			sched := fmt.Sprintf("%s routed=%v", sched, routed)
			sameRows(t, sched, wantS, rowStrings(got))
			if ctx.SpillEvents() == 0 {
				t.Fatalf("%s budget=peak/%d: no spill events at budget %d (peak %d)",
					sched, div, budget, peak)
			}
			if ctx.SpillBytes() == 0 {
				t.Fatalf("%s budget=peak/%d: spill events but no spill bytes", sched, div)
			}
			// The budget is honored up to one batch of transient growth per
			// partition (growth is checked after each scatter is absorbed);
			// a routing scan scatters a whole chunk of ≈ 190 B rows at a time.
			slack := budget/2 + 128<<10
			if routed {
				slack += scanChunkRows * 200
			}
			if p := ctx.PeakTrackedBytes(); p > budget+slack {
				t.Fatalf("%s budget=peak/%d: peak tracked %d exceeds budget %d + slack %d",
					sched, div, p, budget, slack)
			}
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
// snapshots back to exactly the unbounded result, on both schedulers.
func TestAggSpillDifferential(t *testing.T) {
	const n, groups = 24000, 1500
	want, base, err := runSpill(spillAgg(n, groups), 0, 4, SchedulerChan)
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
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		for _, div := range []int64{4, 16} {
			budget := peak / div
			got, ctx, err := runSpill(spillAgg(n, groups), budget, 4, sched)
			if err != nil {
				t.Fatalf("%s budget=peak/%d: %v", sched, div, err)
			}
			sameRows(t, sched, wantS, rowStrings(got))
			if ctx.SpillEvents() == 0 {
				t.Fatalf("%s budget=peak/%d: no spill events at budget %d (peak %d)",
					sched, div, budget, peak)
			}
			slack := budget/2 + 128<<10
			if p := ctx.PeakTrackedBytes(); p > budget+slack {
				t.Fatalf("%s budget=peak/%d: peak tracked %d exceeds budget %d + slack %d",
					sched, div, p, budget, slack)
			}
		}
	}
}

// TestDistinctSpillDifferential: capped dedup must emit each distinct tuple
// exactly once — pipelined before the first eviction, replayed from the run
// after — on both schedulers.
func TestDistinctSpillDifferential(t *testing.T) {
	const n, uniq = 20000, 2500
	want, base, err := runSpill(spillDistinct(n, uniq), 0, 4, SchedulerChan)
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if len(want) != uniq {
		t.Fatalf("baseline distinct = %d, want %d", len(want), uniq)
	}
	peak := base.PeakTrackedBytes()
	wantS := rowStrings(want)
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		for _, div := range []int64{4, 16} {
			budget := peak / div
			got, ctx, err := runSpill(spillDistinct(n, uniq), budget, 4, sched)
			if err != nil {
				t.Fatalf("%s budget=peak/%d: %v", sched, div, err)
			}
			sameRows(t, sched, wantS, rowStrings(got))
			if ctx.SpillEvents() == 0 {
				t.Fatalf("%s budget=peak/%d: no spill events at budget %d (peak %d)",
					sched, div, budget, peak)
			}
			slack := budget/2 + 128<<10
			if p := ctx.PeakTrackedBytes(); p > budget+slack {
				t.Fatalf("%s budget=peak/%d: peak tracked %d exceeds budget %d + slack %d",
					sched, div, p, budget, slack)
			}
		}
	}
}

// TestAggSpillTinyBudget: grouped aggregation under an unworkable budget
// fails with the typed error on both schedulers.
func TestAggSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		_, _, err := runSpill(spillAgg(24000, 1500), 2<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError", sched, err)
		}
	}
}

// TestDistinctSpillTinyBudget: dedup under an unworkable budget fails with
// the typed error on both schedulers.
func TestDistinctSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		_, _, err := runSpill(spillDistinct(20000, 2500), 1<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError", sched, err)
		}
	}
}

// TestJoinSpillTinyBudget: a budget too small for even the maximum merge
// fan-out must fail promptly with a typed *BudgetError, not thrash.
func TestJoinSpillTinyBudget(t *testing.T) {
	for _, sched := range []string{SchedulerChan, SchedulerMorsel} {
		rows, ctx, err := runSpill(spillJoin(3000, 128, false), 4<<10, 4, sched)
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: err = %v, want *BudgetError (rows=%d spills=%d spillBytes=%d peak=%d)",
				sched, err, len(rows), ctx.SpillEvents(), ctx.SpillBytes(), ctx.PeakTrackedBytes())
		}
		if be.Need <= 4<<10 {
			t.Fatalf("%s: BudgetError.Need = %d, not above the budget", sched, be.Need)
		}
	}
}
