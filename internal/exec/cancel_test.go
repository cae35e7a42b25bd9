package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// cancelSource sends its rows a batch at a time and, when k ≥ 0, cancels the
// query once it has sent k batches and stops: its input is cut short.
type cancelSource struct {
	rows []types.Tuple
	sch  *types.Schema
	k    int
}

func (s *cancelSource) Schema() *types.Schema { return s.sch }

func (s *cancelSource) Start(ctx *Context) <-chan Batch {
	out := make(chan Batch, 1)
	ctx.Spawn(func() {
		defer close(out)
		for i, sent := 0, 0; i < len(s.rows); i, sent = i+BatchSize, sent+1 {
			if sent == s.k {
				ctx.Cancel()
				return
			}
			b := GetBatch()
			b.Tuples = append(b.Tuples, s.rows[i:min(i+BatchSize, len(s.rows))]...)
			if !send(ctx, out, b) {
				return
			}
		}
	})
	return out
}

// doneRecorder is a controller that records the points it was told are done.
type doneRecorder struct {
	mu   sync.Mutex
	done map[*Point]bool
}

func (c *doneRecorder) RegisterPoint(*Point) {}
func (c *doneRecorder) Begin()               {}
func (c *doneRecorder) PointDone(p *Point) {
	c.mu.Lock()
	c.done[p] = true
	c.mu.Unlock()
}

// TestPartitionedCancellationContract cancels HashJoin, HashAgg and Distinct
// after the k-th batch of an input, at P = 1 and 4, unbounded and under a
// budget that evicts. Once the query's goroutines have exited, every byte an
// operator accounted is released — the query's tracked bytes and each
// operator's StateBytes are 0 — and no point whose input was cut short is
// Done or was handed to the controller's PointDone.
func TestPartitionedCancellationContract(t *testing.T) {
	const n = 64 * BatchSize
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i % 1500)), types.Int(int64(i))}
	}
	sch := intSchema("a", "x")
	point := func(name string) *Point {
		return &Point{Name: name, Bank: NewFilterBank(), Stateful: true, KeyCols: []int{0},
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, DomainDistinct: []float64{1500, 0}}
	}
	// Each plan cuts the input of its first point short.
	plans := map[string]func(k int) (Op, []*Point){
		"join": func(k int) (Op, []*Point) {
			l := &cancelSource{rows: rows, sch: sch, k: k}
			r := &cancelSource{rows: rows[:n/2], sch: sch, k: -1}
			j := NewHashJoin("j", l, r, []int{0}, []int{0}, []int{0, 1, 3}, nil)
			j.LPoint, j.RPoint = point("l"), point("r")
			return j, []*Point{j.LPoint, j.RPoint}
		},
		"agg": func(k int) (Op, []*Point) {
			gb := []expr.Expr{&expr.ColRef{Idx: 0, Col: sch.Cols[0]}}
			aggs := []plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}, {Func: plan.AggMin, Arg: &expr.ColRef{Idx: 1, Col: sch.Cols[1]}, Name: "m"}}
			h := NewHashAgg("g", &cancelSource{rows: rows, sch: sch, k: k}, gb, aggs, intSchema("a", "c", "m"))
			h.Point = point("g")
			h.Point.EqIDs, h.Point.StateEqIDs, h.Point.DomainDistinct = []int{0, -1}, []int{0}, []float64{1500, 0}
			return h, []*Point{h.Point}
		},
		"distinct": func(k int) (Op, []*Point) {
			d := &Distinct{Name: "d", Child: &cancelSource{rows: rows, sch: sch, k: k}, Point: point("d")}
			d.Point.KeyCols = []int{0, 1}
			return d, []*Point{d.Point}
		},
	}
	var stored, evictions int64
	for name, build := range plans {
		for _, P := range []int{1, 4} {
			for _, budget := range []int64{0, 16 << 10} {
				for _, k := range []int{0, 1, 3, 8, 40} {
					t.Run(fmt.Sprintf("%s/P=%d/budget=%d/k=%d", name, P, budget, k), func(t *testing.T) {
						op, points := build(k)
						rec := &doneRecorder{done: map[*Point]bool{}}
						reg := stats.NewRegistry()
						ctx := NewContext(reg, rec)
						defer ctx.Cleanup()
						ctx.Parallelism, ctx.MemBudget = P, budget
						for _, pt := range points {
							ctx.Register(pt)
						}
						if _, err := Run(ctx, op); err == nil {
							t.Fatal("the query was not cancelled")
						}
						if b := ctx.TrackedBytes(); b != 0 {
							t.Fatalf("%d B still tracked after the query ended", b)
						}
						for _, o := range reg.Ops() {
							if b := o.StateBytes.Current(); b != 0 {
								t.Fatalf("%s: StateBytes %d after the query ended", o.Name, b)
							}
							stored += o.StateRows.Load()
						}
						if cut := points[0]; cut.Done() || rec.done[cut] {
							t.Fatalf("%s: input cut short, yet Done=%v and PointDone=%v", cut.Name, cut.Done(), rec.done[cut])
						}
						evictions += ctx.SpillEvents()
					})
				}
			}
		}
	}
	if stored == 0 || evictions == 0 {
		t.Fatalf("the runs stored %d rows and evicted %d times: the contract was not exercised", stored, evictions)
	}
}
