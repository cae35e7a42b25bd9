package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// A scan that routes for its consumer — hashing keys from the column vectors
// and scattering row ids — must change how much work is done and never the
// answer or the accounting.

// routedFixture is a table with a string column (so row sizes come from the
// sidecar): k = i%1000, k2 = i%7, v a float the pushed predicate v < 20
// selects on, s a string of varying length, d a DATE, and n an INT that is
// NULL on every fifth row (so it has no vector). The router variant appends
// one DECIMAL and one NULL key (both failing the predicate): column k then has
// no IntVec, so the scan cannot route and the plan takes the router path over
// the same surviving rows.
type routedFixture struct {
	sch          *types.Schema
	rows, router []types.Tuple
	small        []types.Tuple // (k*97, b, k) for k < 10, b < 7
	passPred     int64
}

func newRoutedFixture(n int) *routedFixture {
	f := &routedFixture{sch: types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "k2", Kind: types.KindInt},
		types.Column{Table: "l", Name: "v", Kind: types.KindFloat},
		types.Column{Table: "l", Name: "s", Kind: types.KindString},
		types.Column{Table: "l", Name: "d", Kind: types.KindDate},
		types.Column{Table: "l", Name: "n", Kind: types.KindInt})}
	f.rows = make([]types.Tuple, n)
	for i := range f.rows {
		f.rows[i] = types.Tuple{types.Int(int64(i % 1000)), types.Int(int64(i % 7)),
			types.Float(float64(i%50) / 2), types.Str(strings.Repeat("s", i%13)),
			types.Date(int64(9000 + i%37)), types.Int(int64(i % 11))}
		if i%5 == 0 {
			f.rows[i][5] = types.Null()
		}
		if f.rows[i][2].F < 20 {
			f.passPred++
		}
	}
	f.router = append(append([]types.Tuple(nil), f.rows...),
		types.Tuple{types.Float(0.5), types.Int(0), types.Float(99), types.Str("decimal key"), types.Date(0), types.Int(0)},
		types.Tuple{types.Null(), types.Int(0), types.Float(99), types.Str("null key"), types.Date(0), types.Int(0)})
	for k := int64(0); k < 10; k++ {
		for b := int64(0); b < 7; b++ {
			f.small = append(f.small, types.Tuple{types.Int(k * 97), types.Int(b), types.Int(k)})
		}
	}
	return f
}

// scan returns Filter(v < 20)(Scan l) over the routable or the router-forcing
// rows, with the scan still to be wired to its consumer's point.
func (f *routedFixture) scan(routable bool) (*Filter, *Scan) {
	rows := f.router
	if routable {
		rows = f.rows
	}
	sc := &Scan{Name: "l", Rows: rows, Sch: f.sch, Vecs: &catalog.Table{Name: "l", Schema: f.sch, Rows: rows}}
	pred := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 2, Col: f.sch.Cols[2]}, R: &expr.Const{V: types.Float(20)}}
	return &Filter{Name: "l", Child: sc, Pred: pred}, sc
}

func routedPoint(name string, sch *types.Schema, keys []int) *Point {
	eq := make([]int, sch.Len())
	for i := range eq {
		eq[i] = -1
	}
	eq[0] = 0
	return &Point{Name: name, Bank: NewFilterBank(), Stateful: true, Schema: sch,
		EqIDs: eq, StateEqIDs: eq, KeyCols: keys, DomainDistinct: make([]float64, sch.Len())}
}

func findOp(reg *stats.Registry, name string) *stats.OpStats {
	for _, op := range reg.Ops() {
		if op.Name == name {
			return op
		}
	}
	return nil
}

// TestScanRoutedDifferential runs a join and an aggregation fed by a scan
// behind a Filter, once routable and once forced onto the router path, with
// a filter over k published mid-scan (from the point's OnStore hook, so the
// scan is provably still running), for both summary kinds, P ∈ {1, 2}, a
// single- and a two-column key, and an unmodeled and a delayed scan
// (modelSource). The rows must be equal; the routed run must
// say it routed, count every row past the predicate exactly once (received,
// and pruned or got in), hand its consumer exactly what it emitted, and —
// the join's other side held back until the scan-fed side is done, so every
// row that got in is stored — charge the stored rows' MemSize byte for byte.
// The aggregation folds the routedAggs matrix, whose arguments the routed
// fold reads from a vector or from the rows by kind; both of its paths also
// run under a budget that makes them evict and must return the same rows.
func TestScanRoutedDifferential(t *testing.T) {
	const n = 100_000
	f := newRoutedFixture(n)
	keep := &sourceFixture{keep: map[int64]bool{}}
	for _, r := range f.small {
		keep.keep[r[0].I] = true
	}
	aggs, aggCols := routedAggs(f.sch)
	type run struct {
		rows   []types.Tuple
		ctx    *Context
		reg    *stats.Registry
		pt     *Point
		kept   int64 // OnStore calls (join: rows that got in)
		keptSz int64 // Σ MemSize over them
	}
	for _, kind := range []string{"join", "agg"} {
		for _, exact := range []bool{false, true} {
			for _, p := range []int{1, 2} {
				for _, keys := range [][]int{{0}, {0, 1}} {
					for _, modeled := range []bool{false, true} {
						label := fmt.Sprintf("%s exact=%v P=%d keys=%v modeled=%v", kind, exact, p, keys, modeled)
						runPlan := func(routable bool, budget int64) run {
							var r run
							child, sc := f.scan(routable)
							r.pt = routedPoint("l", f.sch, keys)
							sc.Point = r.pt
							if modeled {
								modelSource(sc)
							}
							sum := keep.summary(exact)
							var calls, kept, keptSz atomic.Int64
							var root Op
							if kind == "join" {
								r.pt.OnStore = func(tu types.Tuple) {
									kept.Add(1) // from every chunk worker of the scan, or the router
									keptSz.Add(int64(tu.MemSize()))
									if calls.Add(1) == 1000 {
										r.pt.Bank.Attach([]int{0}, sum)
									}
								}
								small := &Scan{Name: "r", Rows: f.small, Sch: intSchema("a", "b", "y")}
								gate := &gated{child: small, cond: r.pt.Done}
								j := NewHashJoin("j", child, gate, keys, keys, AllCols(child, gate), nil)
								j.LPoint, j.RPoint = r.pt, routedPoint("r", small.Sch, keys)
								root = j
							} else {
								r.pt.OnStore = func(types.Tuple) { // per new group, from the workers
									if calls.Add(1) == 500 {
										r.pt.Bank.Attach([]int{0}, sum)
									}
								}
								gb := make([]expr.Expr, len(keys))
								for i, k := range keys {
									gb[i] = &expr.ColRef{Idx: k, Col: f.sch.Cols[k]}
								}
								h := NewHashAgg("a", child, gb, aggs, f.sch.Project(keys).Concat(types.NewSchema(aggCols...)))
								h.Point = r.pt
								root = h
							}
							r.reg = stats.NewRegistry()
							r.ctx = NewContext(r.reg, nil)
							r.ctx.Parallelism, r.ctx.MemBudget = p, budget
							var err error
							r.rows, err = Run(r.ctx, root)
							r.kept, r.keptSz = kept.Load(), keptSz.Load()
							r.ctx.Cleanup()
							if err != nil {
								t.Fatalf("%s routable=%v budget=%d: %v", label, routable, budget, err)
							}
							return r
						}
						want, got := runPlan(false, 0), runPlan(true, 0)
						// A filter on an aggregation input leaves the groups it
						// prunes with whatever they had folded by then; only the
						// groups it keeps are comparable (and complete).
						comparable := func(rows []types.Tuple) []string {
							var out []types.Tuple
							for _, r := range rows {
								if kind == "join" || keep.keep[r[0].I] {
									out = append(out, r)
								}
							}
							return rowStrings(out)
						}
						if len(comparable(want.rows)) == 0 {
							t.Fatalf("%s: router path produced no rows — test is vacuous", label)
						}
						sameRows(t, label, comparable(want.rows), comparable(got.rows))

						consumer := map[string]string{"join": "join:j.left", "agg": "agg:a"}[kind]
						if r := findOp(want.reg, "scan:l").Routed; r != "" {
							t.Fatalf("%s: the unvectorizable key still routed (%s)", label, r)
						}
						scan, op := findOp(got.reg, "scan:l"), findOp(got.reg, consumer)
						if scan.Routed != consumer {
							t.Fatalf("%s: scan routed for %q, want %q", label, scan.Routed, consumer)
						}
						if findOp(got.reg, "filter:l") != nil {
							t.Fatalf("%s: the filter ran as its own operator", label)
						}
						if scan.In.Load() != n || scan.Out.Load() != op.In.Load() || scan.Out.Load() >= f.passPred/2 {
							t.Fatalf("%s: scan read %d, emitted %d, consumer got %d; want %d read and well under the %d past the predicate emitted",
								label, scan.In.Load(), scan.Out.Load(), op.In.Load(), n, f.passPred)
						}
						if r := got.pt.Received(); r != f.passPred {
							t.Fatalf("%s: received = %d, want %d (each row once)", label, r, f.passPred)
						}
						if pr := op.Pruned.Load(); pr == 0 || pr+op.In.Load() != f.passPred {
							t.Fatalf("%s: pruned %d + got in %d != %d rows past the predicate", label, pr, op.In.Load(), f.passPred)
						}
						if kind == "agg" && exact { // the budget leg; the summary kind does not reach eviction
							for _, unbounded := range []run{want, got} {
								routable := unbounded.ctx == got.ctx
								budget := unbounded.ctx.PeakTrackedBytes() / 4
								l := fmt.Sprintf("%s routable=%v budget=%d", label, routable, budget)
								c := runPlan(routable, budget)
								if c.ctx.SpillEvents() == 0 {
									t.Fatalf("%s: no eviction (unbounded peak %d)", l, unbounded.ctx.PeakTrackedBytes())
								}
								sameRows(t, l, comparable(want.rows), comparable(c.rows))
							}
						}
						if kind != "join" {
							continue
						}
						var partBytes int64
						for i := 0; i < op.Partitions(); i++ {
							partBytes += op.Part(i).Bytes.Load()
						}
						if got.kept != op.In.Load() || op.StateRows.Load() != got.kept || partBytes != got.keptSz {
							t.Fatalf("%s: %d rows got in, %d OnStore calls, %d stored; charged %d B for tuples of %d B",
								label, op.In.Load(), got.kept, op.StateRows.Load(), partBytes, got.keptSz)
						}
					}
				}
			}
		}
	}
}

// routedAggs is the aggregation leg's fold matrix over the routed fixture:
// count(*); sum, count, avg, min and max of k2 (INT, a vector), v (DECIMAL, a
// vector), n (INT holding NULLs, no vector) and v+1 (computed); count, min
// and max of d (DATE, a vector) and s (STRING, no vector). It returns the
// aggregates and their output columns.
func routedAggs(sch *types.Schema) ([]plan.AggSpec, []types.Column) {
	col := func(i int) expr.Expr { return &expr.ColRef{Idx: i, Col: sch.Cols[i]} }
	computed := &expr.Binary{Op: expr.OpAdd, L: col(2), R: &expr.Const{V: types.Float(1)}}
	aggs := []plan.AggSpec{{Func: plan.AggCountStar}}
	for _, arg := range []expr.Expr{col(1), col(2), col(5), computed} {
		for _, fn := range []plan.AggFunc{plan.AggSum, plan.AggCount, plan.AggAvg, plan.AggMin, plan.AggMax} {
			aggs = append(aggs, plan.AggSpec{Func: fn, Arg: arg})
		}
	}
	for _, arg := range []expr.Expr{col(4), col(3)} {
		for _, fn := range []plan.AggFunc{plan.AggCount, plan.AggMin, plan.AggMax} {
			aggs = append(aggs, plan.AggSpec{Func: fn, Arg: arg})
		}
	}
	cols := make([]types.Column, len(aggs))
	for i, a := range aggs {
		kind := types.KindInt
		switch a.Func {
		case plan.AggAvg:
			kind = types.KindFloat
		case plan.AggSum, plan.AggMin, plan.AggMax:
			kind = a.Arg.Kind()
		}
		cols[i] = types.Column{Name: fmt.Sprintf("agg%d", i), Kind: kind}
	}
	return aggs, cols
}

// TestJoinTableRefEntries pins the entry layout: 16 pointer-free bytes, row
// ids stored as they come and charged from the table's row sizes, and a
// footprint of Σ MemSize + 16 B per entry slot + index and heads — no header
// store for a side that references the table.
func TestJoinTableRefEntries(t *testing.T) {
	if sz := unsafe.Sizeof(joinEntry{}); sz != joinEntryBytes {
		t.Fatalf("joinEntry is %d bytes, accounted as %d", sz, joinEntryBytes)
	}
	f := newRoutedFixture(4096)
	tab := &catalog.Table{Name: "l", Schema: f.sch, Rows: f.rows}
	fixed, sizes := tab.RowBytes()
	if fixed != 0 || len(sizes) != len(f.rows) {
		t.Fatalf("a table with a string column reports fixed=%d and %d sizes", fixed, len(sizes))
	}
	sb := getScatter(0)
	sb.src = &rowSource{rows: f.rows, sizes: sizes}
	var want int64
	for rid := 5; rid < len(f.rows); rid += 3 {
		sb.addRow(int32(rid), types.HashIntKey(f.rows[rid][0].I), []int64{f.rows[rid][0].I})
		want += int64(f.rows[rid].MemSize())
	}
	var jt joinTable
	n := sb.len()
	jt.insertBatch(sb, 0, make([]int32, n), make([]bool, n))
	if jt.tupBytes != want {
		t.Fatalf("charged %d B for %d rows of %d B", jt.tupBytes, n, want)
	}
	if got, want := jt.memBytes()-jt.tupBytes, int64(jt.idx.MemSize())+4*int64(cap(jt.heads))+16*int64(cap(jt.entries)); got != want {
		t.Fatalf("fixed overhead %d B, want index + heads + 16 B/entry = %d B", got, want)
	}
	for i := 0; i < n; i++ {
		if &jt.tuple(i)[0] != &f.rows[sb.rids[i]][0] {
			t.Fatalf("entry %d does not resolve to table row %d", i, sb.rids[i])
		}
	}
	if m := jt.probe(types.HashIntKey(8), types.AppendIntKey(nil, 8), ^uint64(0), nil); len(m) == 0 || m[0][0].I != 8 {
		t.Fatalf("probe for key 8 returned %v", m)
	}

	// A fixed-width table needs no sidecar.
	ints := &catalog.Table{Name: "i", Schema: intSchema("a", "b"), Rows: intRows([]int64{1, 2}, []int64{3, 4})}
	if fixed, sizes := ints.RowBytes(); int(fixed) != ints.Rows[0].MemSize() || sizes != nil {
		t.Fatalf("fixed-width table: fixed=%d sizes=%v, want the schema constant %d", fixed, sizes, ints.Rows[0].MemSize())
	}
}

// TestScanRouteZeroAllocs extends TestScanChunkZeroAllocs to the routing
// kernel: typed predicate, vector key hash shared with the Bloom probe,
// row-id scatter, pooled buffers — zero allocations per chunk once warm.
func TestScanRouteZeroAllocs(t *testing.T) {
	f := newSourceFixture(8 * scanChunkRows)
	j, scan := f.plan(true, true)
	j.LPoint.Bank.Attach([]int{0}, f.summary(false))
	reg := stats.NewRegistry()
	ctx := NewContext(reg, nil)
	op := reg.NewOp("scan:l")
	outs := []chan *scatter{make(chan *scatter, 8), make(chan *scatter, 8)}
	rt := newInputRoute(0, 2, outs)
	rt.keys, rt.point, rt.op = j.LKeys, j.LPoint, reg.NewOp("join:j.left")
	fixed, sizes := scan.Vecs.RowBytes()
	rt.src = &rowSource{rows: scan.Rows, fixed: int64(fixed), sizes: sizes}
	w := scan.newWorker(j.Left.(*Filter).Pred)
	kv, _ := scan.Vecs.IntVec(0)
	rt.keyVecs = [][]int64{kv}
	routed := 0
	drain := func() {
		for _, ch := range outs {
			for len(ch) > 0 {
				sb := <-ch
				routed += sb.len()
				putScatter(sb)
			}
		}
	}
	run := func() {
		for lo := 0; lo < len(scan.Rows); lo += scanChunkRows {
			if !w.route(ctx, scan, op, lo, lo+scanChunkRows, rt) {
				t.Fatal("route refused")
			}
			drain()
		}
		rt.flush(ctx, 0)
		drain()
	}
	run()                                                                     // warm the scratch and the pools, build the vectors
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 && !raceEnabled { // sync.Pool sheds under -race
		t.Fatalf("routing kernel allocates %.1f objects per 8 chunks at steady state, want 0", allocs)
	}
	if routed == 0 || int64(routed) != op.Out.Load() {
		t.Fatalf("%d rows routed, scan reports %d — test is vacuous or miscounts", routed, op.Out.Load())
	}
}

// publishCtl is a minimal Feed-forward: when the input named from completes
// it publishes the exact set of its key column 0 into to's bank.
type publishCtl struct {
	from, to *Point
}

func (c *publishCtl) RegisterPoint(*Point) {}
func (c *publishCtl) Begin()               {}
func (c *publishCtl) PointDone(p *Point) {
	if p != c.from || !p.StateComplete() {
		return
	}
	hs := filter.NewHashSet(16)
	var kb []byte
	p.IterState(func(t types.Tuple) bool {
		kb = t[0].AppendKey(kb[:0])
		hs.Add(kb)
		return true
	})
	c.to.Bank.Attach([]int{0}, hs)
}

// soPlan builds start-order test plans: wired scans of (k, x) rows joined on
// k, ranked as the optimizer ranks a plan (RankSources) and registered on a
// context of P = 2.
type soPlan struct {
	points []*Point
	held   []func() // rank an input behind a gated op, which RankSources does not see through
}

// scan returns a wired scan of n rows, k = i*mul % 1000 and x = i, and the
// point it feeds.
func (p *soPlan) scan(name string, n, mul int) (*Scan, *Point) {
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i * mul % 1000)), types.Int(int64(i))}
	}
	sch := intSchema("k", "x")
	pt := p.point(name, sch)
	pt.Tables = []string{name}
	return &Scan{Name: name, Table: name, Rows: rows, Sch: sch, Point: pt,
		Vecs: &catalog.Table{Name: name, Schema: sch, Rows: rows}}, pt
}

// point returns a join input keyed on column 0.
func (p *soPlan) point(name string, sch *types.Schema) *Point {
	pt := routedPoint(name, sch, []int{0})
	p.points = append(p.points, pt)
	return pt
}

// join joins l and r on their column 0.
func (p *soPlan) join(name string, l Op, lp *Point, r Op, rp *Point) *HashJoin {
	j := NewHashJoin(name, l, r, []int{0}, []int{0}, AllCols(l, r), nil)
	j.LPoint, j.RPoint = lp, rp
	return j
}

// hold has in stream only once cond holds; pt, the input it feeds, is ranked
// as in.
func (p *soPlan) hold(in Op, pt *Point, cond func() bool) Op {
	p.held = append(p.held, func() { pt.SourceRows = RankSources(in) })
	return &gated{child: in, cond: cond}
}

// context ranks the plan under root and registers its points under ctl (nil:
// Baseline).
func (p *soPlan) context(root Op, ctl Controller) *Context {
	RankSources(root)
	for _, rank := range p.held {
		rank()
	}
	ctx := NewContext(stats.NewRegistry(), ctl)
	ctx.Parallelism = 2
	for _, pt := range p.points {
		ctx.Register(pt)
	}
	return ctx
}

// startOrderPlan joins a big scan (keys i%1000, nBig rows) with a small one
// (keys 0, 97, 194, …, nSmall rows). hold, when non-nil, keeps the small side
// from streaming until it returns true of the big input's point. The small
// scan is returned unranked, so a leg can still delay it.
func startOrderPlan(nSmall, nBig int, hold func(big *Point) bool) (*soPlan, *HashJoin, *Scan) {
	p := &soPlan{}
	big, bigPt := p.scan("big", nBig, 1)
	small, smallPt := p.scan("small", nSmall, 97)
	var right Op = small
	if hold != nil {
		right = p.hold(small, smallPt, func() bool { return hold(bigPt) })
	}
	return p, p.join("j", big, bigPt, right, smallPt), small
}

// runTimed runs the plan and fails the test if it does not return in time.
func runTimed(t *testing.T, ctx *Context, root Op, limit time.Duration) ([]types.Tuple, error) {
	t.Helper()
	type result struct {
		rows []types.Tuple
		err  error
	}
	done := make(chan result, 1)
	go func() {
		rows, err := Run(ctx, root)
		ctx.Wait()
		done <- result{rows, err}
	}()
	select {
	case r := <-done:
		return r.rows, r.err
	case <-time.After(limit):
		buf := make([]byte, 1<<16)
		t.Fatalf("plan still running after %v\n%s", limit, buf[:runtime.Stack(buf, true)])
		return nil, nil
	}
}

// TestStartOrder: a wired scan holds its first chunk for its join sibling
// when the sibling's estimated output is at least siblingWaitRatio times
// smaller (under every strategy; these points carry no estimate, so their
// source sizes stand in), and under a controller for every input whose
// sources are at least filterWaitRatio times smaller. The small side then
// completes first, so the big side stores nothing, and the filters exist
// before the big scan's first row, which makes what it emits a function of
// the data, not of the race. It does not wait at a smaller gap or for an
// unranked (delayed) sibling, and it does wait, in the Q17 shape, for a
// sibling whose sources are as big but whose estimated output is small; a
// cancellation ends the wait at once and leaks nothing; a small source
// abandoned under PartialOnSourceError still completes its input; and a scan
// honours a filter wait and a sibling wait together.
func TestStartOrder(t *testing.T) {
	bigOp := func(ctx *Context) (scan, in *stats.OpStats) {
		return findOp(ctx.Stats, "scan:big"), findOp(ctx.Stats, "join:j.left")
	}
	publish := func(j *HashJoin) Controller { return &publishCtl{from: j.RPoint, to: j.LPoint} }
	waited := func(label string, ctx *Context, want ...string) {
		t.Helper()
		if scan, _ := bigOp(ctx); !slices.Equal(scan.WaitedFor, want) {
			t.Fatalf("%s: big scan waited %v for %v, want %v", label, scan.Waited, scan.WaitedFor, want)
		}
	}

	// Under a controller, 10 rows against 10 k: the big scan waits for its
	// sibling, whose filter then exists — every run emits exactly the rows of
	// the 10 keys and its side stores none of them.
	var want []string
	for i := 0; i < 20; i++ {
		p, j, _ := startOrderPlan(10, 10_000, nil)
		ctx := p.context(j, publish(j))
		rows, err := runTimed(t, ctx, j, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		scan, in := bigOp(ctx)
		if scan.Out.Load() != 100 || in.PreFilter.Load() != 0 || in.StateRows.Load() != 0 {
			t.Fatalf("run %d: big scan emitted %d rows with %d before any filter, its side stored %d; want the 100 rows of the 10 keys, none early, none stored",
				i, scan.Out.Load(), in.PreFilter.Load(), in.StateRows.Load())
		}
		waited(fmt.Sprintf("run %d", i), ctx, "join:j.right")
		if i == 0 {
			want = rowStrings(rows)
		}
		sameRows(t, fmt.Sprintf("run %d", i), want, rowStrings(rows))
	}
	if len(want) != 100 {
		t.Fatalf("%d result rows, want 100", len(want))
	}

	// Under Baseline, 2 500 rows against 10 k is a 4× gap: the big scan waits
	// for its sibling, which has then completed, so the §VI-A short-circuit
	// leaves the big side probe-only: it stores and allocates nothing.
	for i := 0; i < 5; i++ {
		p, j, _ := startOrderPlan(2_500, 10_000, nil)
		ctx := p.context(j, nil)
		rows, err := runTimed(t, ctx, j, 10*time.Second)
		scan, in := bigOp(ctx)
		if err != nil || len(rows) != 25_000 || scan.In.Load() != 10_000 || in.StateRows.Load() != 0 || in.StateBytes.Peak() != 0 {
			t.Fatalf("4× sibling, run %d: %d rows (want 25000), err %v; big scan read %d, its side stored %d rows, %d B at peak; want 10000 read, nothing stored",
				i, len(rows), err, scan.In.Load(), in.StateRows.Load(), in.StateBytes.Peak())
		}
		waited(fmt.Sprintf("4× sibling, run %d", i), ctx, "join:j.right")
	}

	// 3 000 rows against 10 k is under 4×: the big scan must not wait. The
	// small side streams only once the big input is done, so a wait would hang
	// until gated's safety deadline.
	p, j, _ := startOrderPlan(3_000, 10_000, (*Point).Done)
	ctx := p.context(j, nil)
	if _, err := runTimed(t, ctx, j, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, in := bigOp(ctx); in.StateRows.Load() != 10_000 {
		t.Fatalf("under 4×: big side stored %d rows, want all 10000 (its sibling came after)", in.StateRows.Load())
	}
	waited("under 4×", ctx)

	// The Q17 shape: the sibling joins 10 rows with a second 10 k scan. Its
	// largest source is as big as the scan's, but its estimated output is 10
	// rows, so the big scan waits for it, and the inner join's own big scan
	// waits for its 10-row sibling: the two 10 k scans run one after the
	// other, and neither big side stores a row.
	p = &soPlan{}
	big, bigPt := p.scan("big", 10_000, 1)
	small, smallPt := p.scan("small", 10, 97)
	big2, big2Pt := p.scan("big2", 10_000, 1)
	inner := p.join("i", small, smallPt, big2, big2Pt)
	innerPt := p.point("i", inner.Schema())
	innerPt.EstRows = 10
	j = p.join("j", big, bigPt, inner, innerPt)
	ctx = p.context(j, nil)
	if _, err := runTimed(t, ctx, j, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waited("Q17 shape", ctx, "join:j.right")
	if w := findOp(ctx.Stats, "scan:big2").WaitedFor; !slices.Equal(w, []string{"join:i.left"}) {
		t.Fatalf("Q17 shape: the inner big scan waited for %v, want its 10-row sibling", w)
	}
	for _, in := range []string{"join:j.left", "join:i.right"} {
		if n := findOp(ctx.Stats, in).StateRows.Load(); n != 0 {
			t.Fatalf("Q17 shape: %s stored %d rows, want none", in, n)
		}
	}

	// A delayed sibling is unranked (SourceRows 0) and never waited on, under
	// either strategy: the big scan starts before the sibling is done (held as
	// above).
	for _, ctl := range []bool{false, true} {
		p, j, small := startOrderPlan(10, 10_000, (*Point).Done)
		small.Delay = &DelayConfig{Initial: time.Millisecond}
		var c Controller
		if ctl {
			c = publish(j)
		}
		ctx := p.context(j, c)
		if n := j.RPoint.SourceRows; n != 0 {
			t.Fatalf("delayed sibling ranked %d", n)
		}
		if _, err := runTimed(t, ctx, j, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		waited(fmt.Sprintf("delayed sibling, controller=%v", ctl), ctx)
	}

	// Cancelled while waiting on its sibling under Baseline (the sibling never
	// streams): the wait ends at once and leaks nothing. The routing scan
	// reads chunks while it waits, but its route delivers none of their rows,
	// so its side stores nothing.
	baseline := runtime.NumGoroutine()
	p, j, _ = startOrderPlan(10, 10_000, func(*Point) bool { return false })
	ctx = p.context(j, nil)
	time.AfterFunc(20*time.Millisecond, ctx.Cancel)
	if _, err := runTimed(t, ctx, j, 5*time.Second); err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if scan, in := bigOp(ctx); scan.In.Load() == 0 || in.StateRows.Load() != 0 || in.StateBytes.Peak() != 0 {
		t.Fatalf("big scan read %d rows and its side stored %d (%d B at peak) while it should have been holding; want some read, none stored",
			scan.In.Load(), in.StateRows.Load(), in.StateBytes.Peak())
	}
	waitGoroutines(t, baseline)

	// The small source abandoned under Baseline: its scan ends at once and its
	// input still completes (truncated), which releases the big scan.
	p, j, _ = startOrderPlan(10, 10_000, nil)
	ctx = p.context(j, nil)
	ctx.Recovery.Mode = PartialOnSourceError
	ctx.FailSource(&SourceError{Table: "small", Cause: errors.New("gone")})
	rows, err := runTimed(t, ctx, j, 5*time.Second)
	if err != nil || len(rows) != 0 {
		t.Fatalf("abandoned small source: %d rows, err %v", len(rows), err)
	}
	if scan, _ := bigOp(ctx); scan.In.Load() != 10_000 {
		t.Fatalf("abandoned small source: big scan read %d rows, want 10000", scan.In.Load())
	}

	// A filter wait and a sibling wait on one scan: under a controller the big
	// scan of top(j(big, sib), tiny) waits for sib (2 000 rows, a 5× gap: a
	// sibling wait only) and for tiny (1 250 rows, an 8× gap: a filter wait;
	// sib is too close to wait for it). Holding tiny back holds the big scan;
	// holding sib back holds its route's deliveries, so the big side stores
	// nothing.
	for _, held := range []string{"sib", "tiny"} {
		p := &soPlan{}
		var release atomic.Bool
		big, bigPt := p.scan("big", 10_000, 1)
		sib, sibPt := p.scan("sib", 2_000, 97)
		tiny, tinyPt := p.scan("tiny", 1_250, 97)
		var sibIn, tinyIn Op = sib, tiny
		free := sibPt // the awaited input that is not held back
		if held == "sib" {
			sibIn, free = p.hold(sib, sibPt, release.Load), tinyPt
		} else {
			tinyIn = p.hold(tiny, tinyPt, release.Load)
		}
		j := p.join("j", big, bigPt, sibIn, sibPt)
		jPt := p.point("j", j.Schema())
		top := p.join("top", j, jPt, tinyIn, tinyPt)
		ctx := p.context(top, &publishCtl{})
		done := make(chan error, 1)
		go func() {
			_, err := Run(ctx, top)
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); !free.Done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s held: the other awaited input never completed", held)
			}
		}
		time.Sleep(20 * time.Millisecond) // time a scan that did not wait would have used
		if n := findOp(ctx.Stats, "scan:big").In.Load(); n != 0 && held == "tiny" {
			t.Fatalf("%s held: big scan read %d rows", held, n)
		}
		if n := findOp(ctx.Stats, "join:j.left").StateRows.Load(); n != 0 {
			t.Fatalf("%s held: big side stored %d rows", held, n)
		}
		release.Store(true)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s held: plan still running after its release", held)
		}
		if scan := findOp(ctx.Stats, "scan:big"); !slices.Contains(scan.WaitedFor, "join:j.right") ||
			!slices.Contains(scan.WaitedFor, "join:top.right") || scan.Waited < 20*time.Millisecond {
			t.Fatalf("%s held: big scan waited %v for %v, want ≥ 20ms for join:j.right and join:top.right", held, scan.Waited, scan.WaitedFor)
		}
	}
}

// TestProbeAtSourceDifferential: a routing scan whose join sibling completed
// before its first chunk (start order's sibling edge) probes the sibling's
// finished tables from its chunk workers. Its rows equal the routed path's —
// the same plan unranked, with the small side held until the big one is
// done, so the big side is stored and the small side probes — at P = 1 and
// 4, with a residual, and with the small side's heavy partition spilled
// under a budget, whose share of the big side goes to that partition's
// worker while the rest is probed at the source. The big side stores
// nothing.
func TestProbeAtSourceDifferential(t *testing.T) {
	// The small side: 3 000 rows of key 0 (one partition) and 400 over other
	// keys — 400 or 40 of them, tables the probe looks up in batches and
	// small ones it skips most lookups in by their hash tags — so a budget of
	// half its state evicts only the key-0 partition.
	var smallRows []types.Tuple
	run := func(atSource bool, P int, residual bool, budget int64) ([]string, *Context) {
		p := &soPlan{}
		big, bigPt := p.scan("big", 20_000, 1)
		small, smallPt := p.scan("small", 0, 1)
		small.Rows = smallRows
		small.Vecs = &catalog.Table{Name: "small", Schema: small.Sch, Rows: smallRows}
		var right Op = small
		if !atSource {
			right = &gated{child: small, cond: bigPt.Done}
		}
		j := p.join("j", big, bigPt, right, smallPt)
		if residual { // big.x > small.x
			sch := j.Schema()
			j.Residual = &expr.Binary{Op: expr.OpGt, L: &expr.ColRef{Idx: 1, Col: sch.Cols[1]}, R: &expr.ColRef{Idx: 3, Col: sch.Cols[3]}}
		}
		ctx := p.context(j, nil)
		ctx.Parallelism, ctx.MemBudget = P, budget
		if !atSource {
			bigPt.SourceRows = 0 // no wait: the held small side would hang it
		}
		rows, err := runTimed(t, ctx, j, 20*time.Second)
		ctx.Cleanup()
		if err != nil {
			t.Fatal(err)
		}
		return rowStrings(rows), ctx
	}
	for _, keys := range []int{400, 40} {
		smallRows = make([]types.Tuple, 3_400)
		for i := range smallRows {
			k := 0
			if i >= 3_000 {
				k = 1 + i%keys
			}
			smallRows[i] = types.Tuple{types.Int(int64(k)), types.Int(int64(i))}
		}
		for _, P := range []int{1, 4} {
			for _, residual := range []bool{false, true} {
				label := fmt.Sprintf("keys=%d P=%d residual=%v", keys, P, residual)
				want, routed := run(false, P, residual, 0)
				if len(want) == 0 || findOp(routed.Stats, "join:j.left").StateRows.Load() == 0 {
					t.Fatalf("%s: the routed path returned %d rows and stored no big row — vacuous", label, len(want))
				}
				got, ctx := run(true, P, residual, 0)
				sameRows(t, label, want, got)
				left := findOp(ctx.Stats, "join:j.left")
				if n := left.AtSource.Load(); n != 20_000 || left.StateRows.Load() != 0 {
					t.Fatalf("%s: %d rows probed at the source, %d stored; want all 20000, none", label, n, left.StateRows.Load())
				}
				budget := ctx.PeakTrackedBytes() / 2
				got, ctx = run(true, P, residual, budget)
				sameRows(t, label+" spilled", want, got)
				left = findOp(ctx.Stats, "join:j.left")
				if ctx.SpillEvents() == 0 || left.StateRows.Load() != 0 {
					t.Fatalf("%s spilled: %d evictions, big side stored %d; want some, none", label, ctx.SpillEvents(), left.StateRows.Load())
				}
				if n := left.AtSource.Load(); P == 4 && (n == 0 || n == 20_000) {
					t.Fatalf("%s spilled: %d of 20000 rows probed at the source; want the unspilled partitions' share", label, n)
				}
			}
		}
	}
}

// TestFanRoute: an unmodeled routing scan runs min(GOMAXPROCS, chunks) chunk
// workers that claim chunks from one counter, each with its own route.
// Whatever their interleaving, the aggregation they route for folds every
// row once — its groups equal the router path's — the scan reads every row
// once and the consumer receives what the scan emitted. A cancellation while
// they run ends every worker: the input publishes nothing, no state stays
// accounted, and no goroutine is left.
func TestFanRoute(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 60_000
	f := newRoutedFixture(n)
	sch := f.sch
	mk := func(routable bool) (*HashAgg, *Point, *Scan) {
		child, sc := f.scan(routable)
		pt := routedPoint("a", sch, []int{0})
		sc.Point = pt
		aggs := []plan.AggSpec{{Func: plan.AggCountStar}, {Func: plan.AggSum, Arg: &expr.ColRef{Idx: 1, Col: sch.Cols[1]}}}
		h := NewHashAgg("a", child, []expr.Expr{&expr.ColRef{Idx: 0, Col: sch.Cols[0]}}, aggs,
			types.NewSchema(sch.Cols[0], types.Column{Name: "n", Kind: types.KindInt}, types.Column{Name: "s", Kind: types.KindInt}))
		h.Point = pt
		return h, pt, sc
	}
	for _, P := range []int{1, 4} {
		h, _, _ := mk(false)
		want, _, err := runParallel(h, P)
		if err != nil || len(want) < 100 {
			t.Fatalf("P=%d router path: %d groups, err %v", P, len(want), err)
		}
		for i := 0; i < 5; i++ {
			h, pt, _ := mk(true)
			got, reg, err := runParallel(h, P)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, fmt.Sprintf("P=%d run %d", P, i), rowStrings(want), rowStrings(got))
			scan, op := findOp(reg, "scan:l"), findOp(reg, "agg:a")
			if scan.Routed != "agg:a" || scan.In.Load() != n || scan.Out.Load() != op.In.Load() || pt.Received() != f.passPred {
				t.Fatalf("P=%d run %d: scan routed for %q, read %d, emitted %d; agg got %d, received %d; want %d read, %d received",
					P, i, scan.Routed, scan.In.Load(), scan.Out.Load(), op.In.Load(), pt.Received(), n, f.passPred)
			}
		}
	}

	baseline := runtime.NumGoroutine()
	h, pt, _ := mk(true)
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = 4
	var groups atomic.Int64
	pt.OnStore = func(types.Tuple) { // per new group, from the workers
		if groups.Add(1) == 200 {
			ctx.Cancel()
		}
	}
	if _, err := runTimed(t, ctx, h, 10*time.Second); err == nil {
		t.Fatal("cancelled run reported no error")
	}
	if pt.Done() || ctx.TrackedBytes() != 0 {
		t.Fatalf("cancelled run: input done=%v, %d B still accounted", pt.Done(), ctx.TrackedBytes())
	}
	waitGoroutines(t, baseline)
}
