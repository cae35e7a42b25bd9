package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/types"
)

// TestRoutedWordsMeetRouterBytes joins a side a scan routes for — its keys
// reach the join tables as integer words — with a side fed through a router,
// whose keys arrive as canonical bytes, and checks every result against a
// nested loop over types.Equal. The keys: an INT column against a FLOAT
// column of integral values (plus non-integral ones that match nothing), a
// DATE column against a DATE column, and the two-column key (INT, DATE)
// against (FLOAT, DATE). Each runs at P = 1 and P = 4 in three arrival
// orders: both sides at once; the word side buffered in full before the
// byte side probes it (gated); and the word side held by start order until
// the smaller byte side is done, so it only probes. The last two also run at
// a quarter of their unbounded peak: the gated word tables are evicted as
// bytes, and the held word side reaches spilled partitions after the
// short-circuit, so its scatters are written as spill arrivals.
func TestRoutedWordsMeetRouterBytes(t *testing.T) {
	const nl, nr = 6000, 1200
	lsch := types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "d", Kind: types.KindDate},
		types.Column{Table: "l", Name: "p", Kind: types.KindInt})
	rsch := types.NewSchema(
		types.Column{Table: "r", Name: "f", Kind: types.KindFloat},
		types.Column{Table: "r", Name: "d", Kind: types.KindDate},
		types.Column{Table: "r", Name: "s", Kind: types.KindString})
	lrows := make([]types.Tuple, nl)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i%300 - 20)), types.Date(int64(9000 + i%600)), types.Int(int64(i))}
	}
	rrows := make([]types.Tuple, nr)
	for j := range rrows {
		f := float64(j%300 - 20)
		if j%9 == 0 {
			f += 0.5
		}
		rrows[j] = types.Tuple{types.Float(f), types.Date(int64(9000 + j%600)), types.Str(strings.Repeat("s", 48+j%16))}
	}
	ltab := &catalog.Table{Name: "l", Schema: lsch, Rows: lrows}

	for _, c := range []struct {
		name         string
		lkeys, rkeys []int
	}{
		{"INT=FLOAT", []int{0}, []int{0}},
		{"DATE=DATE", []int{1}, []int{1}},
		{"INT,DATE=FLOAT,DATE", []int{0, 1}, []int{0, 1}},
	} {
		var want []types.Tuple
		for _, l := range lrows {
			for _, r := range rrows {
				eq := true
				for i := range c.lkeys {
					eq = eq && types.Equal(l[c.lkeys[i]], r[c.rkeys[i]])
				}
				if eq {
					want = append(want, types.Concat(l, r))
				}
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: empty reference", c.name)
		}
		wantS := rowStrings(want)

		for _, order := range []string{"concurrent", "words buffered", "words probe"} {
			run := func(p int, budget int64) ([]types.Tuple, *Context, *stats.Registry) {
				l := &Scan{Name: "l", Rows: lrows, Sch: lsch, Vecs: ltab}
				l.Point = routedPoint("l", lsch, c.lkeys)
				var r Op = &Scan{Name: "r", Rows: rrows, Sch: rsch}
				if order == "words buffered" {
					r = &gated{child: r, cond: l.Point.Done}
				}
				j := NewHashJoin("j", l, r, c.lkeys, c.rkeys, AllCols(l, r), nil)
				j.LPoint, j.RPoint = l.Point, routedPoint("r", rsch, c.rkeys)
				reg := stats.NewRegistry()
				ctx := NewContext(reg, nil)
				ctx.Parallelism, ctx.MemBudget = p, budget
				if order == "words probe" {
					RankSources(j)
					ctx.Register(j.LPoint)
					ctx.Register(j.RPoint)
				}
				rows, err := Run(ctx, j)
				ctx.Cleanup()
				if err != nil {
					t.Fatalf("%s %s P=%d budget=%d: %v", c.name, order, p, budget, err)
				}
				return rows, ctx, reg
			}
			for _, p := range []int{1, 4} {
				label := fmt.Sprintf("%s %s P=%d", c.name, order, p)
				rows, ctx, reg := run(p, 0)
				sameRows(t, label, wantS, rowStrings(rows))
				scan := findOp(reg, "scan:l")
				if scan.Routed != "join:j.left" {
					t.Fatalf("%s: the INT/DATE side did not route (routed=%q)", label, scan.Routed)
				}
				if waited := len(scan.WaitedFor) > 0; waited != (order == "words probe") {
					t.Fatalf("%s: the word side waited for %v", label, scan.WaitedFor)
				}
				if order == "concurrent" || p == 1 {
					continue
				}
				budget := ctx.PeakTrackedBytes() / 4
				rows, ctx, _ = run(p, budget)
				label = fmt.Sprintf("%s budget=%d", label, budget)
				if ctx.SpillEvents() == 0 {
					t.Fatalf("%s: no eviction", label)
				}
				sameRows(t, label, wantS, rowStrings(rows))
			}
		}
	}
}
