package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/types"
)

// BenchmarkJoinSpillMerge measures a join spilled at a quarter of its
// unbounded peak, end to end, in the shape Q17's lineitem join takes under a
// memory budget: a 60 k-row side routed by its scan (row ids over the column
// vectors; 20 k keys, seven columns with a string), buffered in full before
// the two-row other side arrives (held back until the routed side is done),
// so the merge builds on the two rows and streams every routed record past
// them, nearly all without a match. The fixture is the file's own, so it runs
// unmodified on older checkouts for comparison.
func BenchmarkJoinSpillMerge(b *testing.B) {
	const n, keys = 60_000, 20_000
	sch := types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "q", Kind: types.KindFloat},
		types.Column{Table: "l", Name: "p", Kind: types.KindFloat},
		types.Column{Table: "l", Name: "o", Kind: types.KindInt},
		types.Column{Table: "l", Name: "d", Kind: types.KindDate},
		types.Column{Table: "l", Name: "s", Kind: types.KindInt},
		types.Column{Table: "l", Name: "c", Kind: types.KindString},
	)
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i * 7 % keys)), types.Float(float64(i%50) + 1),
			types.Float(float64(i) * 1.5), types.Int(int64(i / 4)), types.Date(int64(9000 + i%2000)),
			types.Int(int64(i % 100)), types.Str(fmt.Sprintf("comment %08d of a lineitem", i))}
	}
	tab := &catalog.Table{Name: "l", Schema: sch, Rows: rows}
	tab.IntVec(0) // build the lazy sidecars outside the timed loop
	tab.RowBytes()
	other := []types.Tuple{{types.Int(7), types.Int(1)}, {types.Int(11), types.Int(2)}}
	run := func(budget int64) (*Context, int) {
		lp := &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, Schema: sch,
			EqIDs: []int{0, -1, -1, -1, -1, -1, -1}, StateEqIDs: []int{0, -1, -1, -1, -1, -1, -1},
			KeyCols: []int{0}, DomainDistinct: []float64{keys, 0, 0, 0, 0, 0, 0}}
		l := &Scan{Name: "l", Rows: rows, Sch: sch, Point: lp, Vecs: tab}
		r := &gated{child: &Scan{Name: "r", Rows: other, Sch: intSchema("k", "b")}, cond: lp.Done}
		j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
		j.LPoint = lp
		ctx := NewContext(stats.NewRegistry(), nil)
		ctx.Parallelism = 2
		ctx.MemBudget = budget
		out, err := Run(ctx, j)
		ctx.Cleanup()
		if err != nil {
			b.Fatal(err)
		}
		if findOp(ctx.Stats, "scan:l").Routed == "" {
			b.Fatal("the scan did not route")
		}
		return ctx, len(out)
	}
	base, want := run(0)
	budget := base.PeakTrackedBytes() / 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, got := run(budget)
		if got != want || ctx.SpillEvents() == 0 {
			b.Fatalf("%d rows (want %d), %d evictions at budget %d", got, want, ctx.SpillEvents(), budget)
		}
	}
}
