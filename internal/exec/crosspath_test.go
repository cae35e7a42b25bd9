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
// nested loop over types.Equal, where a NULL equals nothing. The keys: an INT column against a FLOAT
// column of integral values (plus non-integral ones that match nothing), a
// DATE column against a DATE column, and the two-column key (INT, DATE)
// against (FLOAT, DATE). Two more cases feed both sides through routers,
// INT against INT (with NULLs, which an equi-join drops before keying): tuple
// words meet tuple words, and — with DECIMAL values in some of the left
// side's batches — words meet the bytes those batches fall back to. Each
// runs at P = 1 and P = 4 in three arrival orders: both sides at once; the
// left side buffered in full before the right side probes it (gated); and
// the left side held by start order until the smaller right side is done,
// so it only probes. The last two also run at a quarter of their unbounded
// peak: the gated left tables are evicted as bytes, and the held left side
// reaches spilled partitions after the short-circuit, so its scatters are
// written as spill arrivals.
func TestRoutedWordsMeetRouterBytes(t *testing.T) {
	const nl, nr = 6000, 1200
	lsch := types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "d", Kind: types.KindDate},
		types.Column{Table: "l", Name: "p", Kind: types.KindInt})
	rsch := types.NewSchema(
		types.Column{Table: "r", Name: "f", Kind: types.KindFloat},
		types.Column{Table: "r", Name: "d", Kind: types.KindDate},
		types.Column{Table: "r", Name: "s", Kind: types.KindString},
		types.Column{Table: "r", Name: "i", Kind: types.KindInt})
	lrows := make([]types.Tuple, nl)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i%300 - 20)), types.Date(int64(9000 + i%600)), types.Int(int64(i))}
	}
	// The left side of the DECIMAL case: every third batch a router reads
	// holds integral and non-integral DECIMAL keys beside its INTs, and
	// every batch a NULL.
	mixed := make([]types.Tuple, nl)
	for i, r := range lrows {
		k := r[0]
		switch {
		case i%97 == 0:
			k = types.Null()
		case i/BatchSize%3 == 1 && i%5 == 0:
			k = types.Float(float64(k.I))
		case i/BatchSize%3 == 1 && i%7 == 0:
			k = types.Float(float64(k.I) + 0.5)
		}
		mixed[i] = types.Tuple{k, r[1], r[2]}
	}
	rrows := make([]types.Tuple, nr)
	for j := range rrows {
		f := float64(j%300 - 20)
		if j%9 == 0 {
			f += 0.5
		}
		i := types.Int(int64(j%300 - 20))
		if j%11 == 0 {
			i = types.Null()
		}
		rrows[j] = types.Tuple{types.Float(f), types.Date(int64(9000 + j%600)), types.Str(strings.Repeat("s", 48+j%16)), i}
	}
	ltab := &catalog.Table{Name: "l", Schema: lsch, Rows: lrows}

	for _, c := range []struct {
		name         string
		lkeys, rkeys []int
		lrows        []types.Tuple // nil: a scan routes lrows for the left side
	}{
		{"INT=FLOAT", []int{0}, []int{0}, nil},
		{"DATE=DATE", []int{1}, []int{1}, nil},
		{"INT,DATE=FLOAT,DATE", []int{0, 1}, []int{0, 1}, nil},
		{"router INT=INT", []int{0}, []int{3}, lrows},
		{"router INT|DECIMAL=INT", []int{0}, []int{3}, mixed},
	} {
		lrows := lrows
		if c.lrows != nil {
			lrows = c.lrows
		}
		var want []types.Tuple
		for _, l := range lrows {
			for _, r := range rrows {
				eq := true
				for i := range c.lkeys {
					eq = eq && !l[c.lkeys[i]].IsNull() && types.Equal(l[c.lkeys[i]], r[c.rkeys[i]])
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
				l := &Scan{Name: "l", Rows: lrows, Sch: lsch}
				if c.lrows == nil {
					l.Vecs = ltab
				}
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
				scan, in := findOp(reg, "scan:l"), findOp(reg, "join:j.left")
				if routed := scan.Routed == "join:j.left"; routed != (c.lrows == nil) {
					t.Fatalf("%s: the left side's scan routed=%q", label, scan.Routed)
				}
				if c.lrows != nil {
					words, bytes := in.WordBatches.Load(), in.ByteBatches.Load()
					if words == 0 || (bytes > 0) != (c.name == "router INT|DECIMAL=INT") {
						t.Fatalf("%s: the left router keyed %d batches as words, %d as bytes", label, words, bytes)
					}
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
