package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/types"
)

// partitioned is the runtime of one run of a partitioned operator (HashJoin,
// HashAgg, Distinct; see the package comment): everything it does outside
// its own algorithm.
type partitioned struct {
	ctx  *Context
	P    int
	ins  []chan *scatter // per partition: what the routes scatter to its worker
	out  chan Batch
	ops  []*stats.OpStats // one stats block per input
	mems []*partMem       // per partition, registered by the operator

	routing atomic.Int32   // inputs whose route has not ended
	partial atomic.Bool    // a route was cut short or a worker stopped early: publish nothing
	wg      sync.WaitGroup // the routes and the workers
}

// newPartitioned sizes an operator with one stats block per input: P is the
// context's partition count clamped to est, the plan's estimate of the rows
// it receives (clampPartitions). The operator registers each partition's
// partMem in mems, and feeds every input: finish waits for each route.
func newPartitioned(ctx *Context, est float64, ops ...*stats.OpStats) *partitioned {
	P := clampPartitions(ctx.partitions(), est)
	ctx.addMemParts(P)
	r := &partitioned{ctx: ctx, P: P, ins: make([]chan *scatter, P), out: make(chan Batch, pipelineDepth),
		ops: ops, mems: make([]*partMem, P)}
	for p := range r.ins {
		r.ins[p] = make(chan *scatter, pipelineDepth)
	}
	for _, op := range ops {
		op.SetPartitions(P)
	}
	r.routing.Store(int32(len(ops)))
	r.wg.Add(len(ops))
	return r
}

// route returns the routing phase of input side, keyed on keys, scattering
// to the partitions.
func (r *partitioned) route(side int, op *stats.OpStats, pt *Point, keys []int) *inputRoute {
	rt := newInputRoute(side, r.P, r.ins)
	rt.keys, rt.point, rt.op = keys, pt, op
	return rt
}

// feed starts one input, routed by rt: by the scan below, whose table
// vectors it returns, when that scan can route for it (routingScan), else —
// and always for computed keys — by a router goroutine. When the route ends,
// done (may be nil) learns whether it consumed the input in full without a
// cancellation; after the last input's, the partition channels close.
func (r *partitioned) feed(child Op, rt *inputRoute, done func(complete bool)) TableVectors {
	rt.done = func(complete bool) {
		if !complete {
			r.partial.Store(true)
		}
		if done != nil {
			done(complete)
		}
		if r.routing.Add(-1) == 0 {
			for _, in := range r.ins {
				close(in)
			}
		}
		r.wg.Done()
	}
	if rt.exprs == nil {
		if sc, pred := routingScan(child, rt.point, rt.keys); sc != nil {
			sc.start(r.ctx, pred, rt, nil)
			return sc.Vecs
		}
	}
	in := child.Start(r.ctx)
	r.ctx.Spawn(func() { rt.drive(r.ctx, in) })
	return nil
}

// work starts the P partition workers: worker(p, in) drains partition p's
// channel, and reports false when it stopped before the end — cancelled, or
// failed and cancelled the query — which leaves the state partial.
func (r *partitioned) work(worker func(p int, in <-chan *scatter) bool) {
	r.wg.Add(r.P)
	for p, in := range r.ins {
		r.ctx.Spawn(func() {
			defer r.wg.Done()
			if !worker(p, in) {
				r.partial.Store(true)
			}
		})
	}
}

// finish starts the operator's last goroutine: once every route and worker
// has ended it runs last (merge, publication, emission), then releases what
// the partitions still account and closes the output.
func (r *partitioned) finish(last func()) {
	r.ctx.Spawn(func() {
		defer close(r.out) // also when last panics: the query fails, not hangs
		defer func() {
			for _, m := range r.mems {
				m.release(r.ctx)
			}
			for _, op := range r.ops {
				op.StateBytes.Add(-op.StateBytes.Current())
			}
		}()
		r.wg.Wait()
		last()
	})
}

// emit sends b downstream, counted on the first input's stats block once
// delivered (the join attributes its merged rows to its left side).
func (r *partitioned) emit(b Batch) bool { return send(r.ctx, r.out, b, &r.ops[0].Out) }

// partMem is the footprint one partition has accounted to the query's
// tracked bytes (and to the StateBytes of the input that stored it, which
// the writer of a spill run gives back).
type partMem struct {
	bytes int64
}

// stored accounts one batch that partition p of P absorbed for input
// (op, pt): its footprint moved by delta bytes, and rows tuples (or groups)
// of rowBytes payload were stored. It reports whether the partition should
// now evict (Context.memPressure).
func (m *partMem) stored(ctx *Context, op *stats.OpStats, pt *Point, p, P int, delta, rows, rowBytes int64) bool {
	if delta != 0 {
		ctx.account(delta)
		op.StateBytes.Add(delta)
		m.bytes += delta
	}
	op.StateRows.Add(rows)
	pp := op.Part(p)
	pp.Rows.Add(rows)
	pp.Bytes.Add(rowBytes)
	if pt != nil {
		pt.stored.Add(rows)
	}
	return ctx.memPressure(m.bytes, P)
}

// release gives back to the query everything the partition has accounted.
func (m *partMem) release(ctx *Context) {
	ctx.account(-m.bytes)
	m.bytes = 0
}

// evicted ends a bucket-discard eviction: the bytes are released, the
// eviction is counted on op, and every point's state is marked incomplete.
func (m *partMem) evicted(ctx *Context, op *stats.OpStats, points ...*Point) {
	m.release(ctx)
	ctx.spillEvents.Add(1)
	op.SpillEvents.Inc()
	for _, p := range points {
		if p != nil {
			p.stateIncomplete.Store(true)
		}
	}
}

// publish makes input pt's state final, unless pt is nil: iter streams it
// (Point.IterState; nil for a stateless input), the point is Done, and the
// controller and the scans awaiting the point are told.
func (c *Context) publish(pt *Point, iter func(emit func(types.Tuple) bool)) {
	if pt == nil {
		return
	}
	pt.setStateIter(iter)
	pt.done.Store(true)
	c.pointDone(pt)
}

// mergeFanout sizes the merge of spilled bytes of payload: F sub-buckets, up
// to spillMaxFanout, so that one rebuilt table (about twice its payload)
// fits the merge share, budget/4 (room for the partitions still buffering).
// fits is false when even F overflow it; passLimit (0: unbounded) is what a
// pass's table may reach before the merge fails typed.
func (c *Context) mergeFanout(spilled int64) (F int, passLimit int64, fits bool) {
	share := int64(1 << 62)
	if c.MemBudget > 0 {
		share = max(c.MemBudget/4, 1)
		passLimit = 2 * share
	}
	F = 1
	for F < spillMaxFanout && 2*spilled/int64(F) > share {
		F <<= 1
	}
	return F, passLimit, 2*spilled/int64(F) <= share
}

// chargePass charges a merge pass's n bytes to the query and, unless op is
// nil, to op's StateBytes; the returned func gives them back.
func (c *Context) chargePass(op *stats.OpStats, n int64) (release func()) {
	c.account(n)
	if op != nil {
		op.StateBytes.Add(n)
	}
	return func() {
		c.account(-n)
		if op != nil {
			op.StateBytes.Add(-n)
		}
	}
}
