package exec

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// BenchmarkHashAggFold measures the aggregation fold end to end over Q17's
// inner-block shape, avg(DECIMAL) GROUP BY INT: 300 k rows into 10 k groups
// at one partition. routed feeds it from a scan that routes for it (row ids
// over the column vectors); router from a scan of the same rows without
// vectors, through the router goroutine and evaluated argument columns.
func BenchmarkHashAggFold(b *testing.B) {
	const n, groups = 300_000, 10_000
	sch := types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "q", Kind: types.KindFloat})
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i * 7 % groups)), types.Float(float64(i%200) / 4)}
	}
	tab := &catalog.Table{Name: "l", Schema: sch, Rows: rows}
	tab.IntVec(0) // build the lazy sidecars outside the timed loop
	tab.FloatVec(1)
	tab.RowBytes()
	osch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "avg", Kind: types.KindFloat})
	for _, routed := range []bool{true, false} {
		name := map[bool]string{true: "routed", false: "router"}[routed]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt := &Point{Name: "l", Bank: NewFilterBank(), Stateful: true, Schema: sch,
					EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
					DomainDistinct: []float64{groups, 0}}
				sc := &Scan{Name: "l", Rows: rows, Sch: sch, Point: pt}
				if routed {
					sc.Vecs = tab
				}
				h := NewHashAgg("a", sc, []expr.Expr{&expr.ColRef{Idx: 0, Col: sch.Cols[0]}},
					[]plan.AggSpec{{Func: plan.AggAvg, Arg: &expr.ColRef{Idx: 1, Col: sch.Cols[1]}, Name: "avg"}}, osch)
				h.Point = pt
				reg := stats.NewRegistry()
				ctx := NewContext(reg, nil)
				ctx.Parallelism = 1
				out, err := Run(ctx, h)
				if err != nil || len(out) != groups {
					b.Fatalf("%d groups, err %v", len(out), err)
				}
				if got := findOp(reg, "scan:l").Routed != ""; got != routed {
					b.Fatalf("scan routed = %v, want %v", got, routed)
				}
			}
		})
	}
}
