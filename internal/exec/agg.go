package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// aggAcc accumulates one aggregate for one group.
type aggAcc struct {
	count int64
	sumF  float64
	sumI  int64
	isInt bool
	min   types.Value
	max   types.Value
	seen  bool
}

func (a *aggAcc) add(f plan.AggFunc, v types.Value) {
	if f == plan.AggCountStar {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	a.count++
	switch f {
	case plan.AggSum, plan.AggAvg:
		if v.K == types.KindInt {
			a.sumI += v.I
		}
		fv, _ := v.AsFloat()
		a.sumF += fv
	case plan.AggMin:
		if !a.seen || types.Compare(v, a.min) < 0 {
			a.min = v
		}
	case plan.AggMax:
		if !a.seen || types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.seen = true
}

func (a *aggAcc) result(f plan.AggFunc, argKind types.Kind) types.Value {
	switch f {
	case plan.AggCount, plan.AggCountStar:
		return types.Int(a.count)
	case plan.AggSum:
		if a.count == 0 {
			return types.Null()
		}
		if argKind == types.KindInt {
			return types.Int(a.sumI)
		}
		return types.Float(a.sumF)
	case plan.AggAvg:
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sumF / float64(a.count))
	case plan.AggMin:
		if !a.seen {
			return types.Null()
		}
		return a.min
	default:
		if !a.seen {
			return types.Null()
		}
		return a.max
	}
}

// groupState is the buffered state for one group.
type groupState struct {
	groupVals types.Tuple
	accs      []aggAcc
}

// HashAgg is the blocking hash-based aggregation operator. Its input is an
// AIP injection point: filters prune arriving tuples before they create or
// update groups, and once the input completes the set of group keys is
// available as AIP-set state (the paper's Example 3.2 builds a Bloom filter
// of PARTKEY "from the state in the aggregation operator").
//
// Like the join, the operator is radix partitioned: a router evaluates the
// group-by keys, hashes them once, and scatters tuples to P partitions by
// the top hash bits; every partition's KeyTable and group array is owned by
// a single worker goroutine, so group maintenance for different partitions
// runs fully in parallel without locks (a group's key always routes to the
// same partition, so each group lives in exactly one).
type HashAgg struct {
	Name    string
	Child   Op
	GroupBy []expr.Expr
	Aggs    []plan.AggSpec
	Point   *Point

	sch *types.Schema
}

// NewHashAgg builds the operator; sch must be [group cols..., agg cols...].
func NewHashAgg(name string, child Op, groupBy []expr.Expr, aggs []plan.AggSpec, sch *types.Schema) *HashAgg {
	return &HashAgg{Name: name, Child: child, GroupBy: groupBy, Aggs: aggs, sch: sch}
}

// Schema returns the post-aggregation schema.
func (h *HashAgg) Schema() *types.Schema { return h.sch }

// accAllocator hands out aggAcc slices carved from chunked backing arrays,
// one allocation per ~256 groups instead of one per group. Each partition
// worker owns its own allocator.
type accAllocator struct {
	width int
	free  []aggAcc
}

func (a *accAllocator) alloc() []aggAcc {
	if a.width == 0 {
		return nil
	}
	if len(a.free) < a.width {
		a.free = make([]aggAcc, 256*a.width)
	}
	out := a.free[:a.width:a.width]
	a.free = a.free[a.width:]
	return out
}

// colRefs returns the input columns a group-by list names when every
// expression is a plain column reference, else nil.
func colRefs(es []expr.Expr) []int {
	cols := make([]int, 0, len(es))
	for _, e := range es {
		cr, ok := e.(*expr.ColRef)
		if !ok {
			return nil
		}
		cols = append(cols, cr.Idx)
	}
	return cols
}

// aggPart is one radix partition of the aggregation state, owned by its
// worker goroutine. The embedded aggCore carries the group table and the
// bucket-discard spill state (aggspill.go).
type aggPart struct {
	in chan *scatter
	aggCore
}

// Start launches the router and the per-partition fold workers.
func (h *HashAgg) Start(ctx *Context) <-chan Batch {
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("agg:" + h.Name)
	if h.Point != nil {
		h.Point.Op = op
	}
	P := ctx.partitions()
	P = clampPartitions(P, pointEstRows(h.Point))
	ctx.addMemParts(P)
	op.SetPartitions(P)

	parts := make([]*aggPart, P)
	partIns := make([]chan *scatter, P)
	for p := range parts {
		parts[p] = &aggPart{in: make(chan *scatter, pipelineDepth),
			aggCore: aggCore{accs: accAllocator{width: len(h.Aggs)}}}
		partIns[p] = parts[p].in
	}

	gcols := make([]int, len(h.GroupBy))
	for i := range gcols {
		gcols[i] = i
	}

	// Router: probe AIP filters, evaluate the group-by expressions
	// batch-at-a-time through the vectorized kernels, hash each surviving
	// tuple's group key once, and scatter. Stats are accumulated in locals
	// and flushed once per batch. routed records a complete, uncancelled
	// pass over the input; the finisher publishes the AIP state only then
	// (partial state must not be presented as a completed input's summary).
	routerDone := make(chan struct{})
	routed := false
	router := func(in <-chan Batch) {
		defer close(routerDone)
		var (
			keyHasher types.Hasher
			sc        ProbeScratch // batch AIP probing over the input columns
			pr        = newInputRoute(0, P, partIns)
			keep      []int32         // lanes surviving the AIP filters
			gcols2    [][]types.Value // per group-by expr: lane-indexed column
		)
		compiled := make([]*expr.Compiled, len(h.GroupBy))
		for i, g := range h.GroupBy {
			compiled[i] = expr.Compile(g)
		}
		gcols2 = make([][]types.Value, len(compiled))
		gvals := make(types.Tuple, len(h.GroupBy))
		for b := range in {
			sel := b.Live()
			nIn := int64(len(sel))
			var pruned int64
			keep = keep[:0]
			if h.Point != nil && h.Point.Bank.Len() > 0 {
				// The routing key is the evaluated group-by tuple, not input
				// columns, so the filters encode through the alt scratch
				// (keyCols = nil) and the group keys are hashed below.
				keep = h.Point.Bank.ProbeBatch(b.Tuples, nil, sel, keep, &sc)
				pruned = nIn - int64(len(keep))
			} else {
				keep = append(keep, sel...)
				if h.Point != nil && ctx.Ctl != nil {
					op.PreFilter.Add(nIn)
				}
			}
			// One vectorized pass per group-by expression over the
			// survivors, then assemble the per-lane key from the columns.
			for i, c := range compiled {
				gcols2[i] = growVals(gcols2[i], len(b.Tuples))
				c.EvalBatch(b.Tuples, keep, gcols2[i])
			}
			for _, l := range keep {
				for i := range compiled {
					gvals[i] = gcols2[i][l]
				}
				kh, key := keyHasher.KeyCols(gvals, gcols)
				pr.route(b.Tuples[l], kh, key)
			}
			op.In.Add(nIn)
			op.Pruned.Add(pruned)
			if h.Point != nil {
				h.Point.received.Add(nIn)
			}
			PutBatch(b)
			if !pr.flush(ctx, 0) {
				return
			}
		}
		// A closed input channel under cancellation means the stream was
		// truncated upstream, not that the input completed.
		routed = ctx.Err() == nil
	}

	// The input starts only now: a scan probing on the point's behalf
	// accounts its pruning through Point.Op. When every group-by expression
	// is a plain integer-vector-backed column the scan below routes for the
	// operator (a group key of column refs encodes like the columns
	// themselves), and plain vector-backed aggregate arguments are folded
	// from the vectors by row id; vecArgs stays nil on the router path.
	var vecArgs []func(rid int32) types.Value // per aggregate; nil: evaluate over the row
	keyCols := colRefs(h.GroupBy)
	if sc, pred := routingScan(h.Child, h.Point, keyCols); sc != nil {
		vecArgs = make([]func(int32) types.Value, len(h.Aggs))
		for k, a := range h.Aggs {
			cr, ok := a.Arg.(*expr.ColRef)
			if !ok {
				continue
			}
			if f := sc.Vecs.FloatVec(cr.Idx); f != nil {
				vecArgs[k] = func(r int32) types.Value { return types.Float(f[r]) }
			} else if iv, kind := sc.Vecs.IntVec(cr.Idx); iv != nil {
				vecArgs[k] = func(r int32) types.Value { return types.Value{K: kind, I: iv[r]} }
			}
		}
		rt := newInputRoute(0, P, partIns)
		rt.keys, rt.point, rt.op = keyCols, h.Point, op
		rt.done = func(complete bool) {
			routed = complete
			close(routerDone)
		}
		sc.start(ctx, pred, rt, nil)
	} else {
		in := h.Child.Start(ctx)
		ctx.Spawn(func() { router(in) })
	}

	// Workers: fold scattered tuples into the owned partition state. The
	// aggregate arguments are evaluated batch-at-a-time into lane-indexed
	// columns (one vectorized pass per argument per scatter) before the
	// fold loop; each worker compiles its own kernels.
	var workerWg sync.WaitGroup
	workerWg.Add(P)
	for p := 0; p < P; p++ {
		pidx := p
		ctx.Spawn(func() {
			defer workerWg.Done()
			pt := parts[pidx]
			gvals := make(types.Tuple, len(h.GroupBy))
			argC := make([]*expr.Compiled, len(h.Aggs))
			for k := range h.Aggs {
				argC[k] = expr.Compile(h.Aggs[k].Arg) // nil Arg compiles to nil
			}
			argCols := make([][]types.Value, len(h.Aggs))
			var (
				ids   []int32 // batch kernel scratch: group ids per lane
				added []bool
			)
			for sb := range pt.in {
				var newGroups, newBytes int64
				preBytes := pt.memBytes()
				n := sb.len()
				ident := identSel(n)
				for k, c := range argC {
					if c == nil || sb.src != nil && vecArgs[k] != nil {
						continue
					}
					if sb.src != nil && len(sb.tuples) == 0 {
						// An argument no vector backs: resolve the headers.
						for _, r := range sb.rids {
							sb.tuples = append(sb.tuples, sb.src.rows[r])
						}
					}
					argCols[k] = growVals(argCols[k], n)
					c.EvalBatch(sb.tuples, ident, argCols[k])
				}
				ids = growI32(ids, n)
				if cap(added) < n {
					added = make([]bool, n)
				}
				pt.idx.InsertBatch(sb.hashes, sb.keys, sb.offs, ids, added[:n])
				for i := 0; i < n; i++ {
					id := ids[i]
					if added[i] {
						// Re-evaluate the group key to store it: cheaper
						// than shipping evaluated keys through the scatter,
						// since it runs once per group, not once per tuple.
						t := sb.tuple(i)
						for k, g := range h.GroupBy {
							gvals[k] = g.Eval(t)
						}
						pt.groups = append(pt.groups, groupState{groupVals: gvals.Clone(), accs: pt.accs.alloc()})
						newGroups++
						newBytes += int64(gvals.MemSize()) + int64(48*len(h.Aggs))
						if h.Point != nil && h.Point.OnStore != nil {
							h.Point.OnStore(pidx, pt.groups[id].groupVals)
						}
					}
					gs := &pt.groups[id]
					for k := range h.Aggs {
						var v types.Value
						if sb.src != nil && vecArgs[k] != nil {
							v = vecArgs[k](sb.rids[i])
						} else if argC[k] != nil {
							v = argCols[k][i]
						}
						gs.accs[k].add(h.Aggs[k].Func, v)
					}
				}
				pt.groupBytes += newBytes
				// Budget accounting is delta-based over the full footprint
				// (key index + groups), so the StateBytes gauge moves by the
				// same delta instead of the payload estimate alone.
				if delta := pt.memBytes() - preBytes; delta != 0 {
					ctx.account(delta)
					op.StateBytes.Add(delta)
					pt.bytes += delta
				}
				op.StateRows.Add(newGroups)
				pp := op.Part(pidx)
				pp.Rows.Add(newGroups)
				pp.Bytes.Add(newBytes)
				if h.Point != nil {
					h.Point.stored.Add(newGroups)
				}
				if ctx.memPressure(pt.bytes, P) {
					if err := pt.evict(ctx, op, h.Point, h.Aggs); err != nil {
						ctx.CancelCause(err)
						return
					}
				}
				putScatter(sb)
			}
		})
	}

	// Finisher: close the partition channels once routing ends, wait for the
	// folds, publish the AIP state, and emit the result rows.
	ctx.Spawn(func() {
		defer close(out)
		<-routerDone
		for _, pt := range parts {
			close(pt.in)
		}
		workerWg.Wait()
		defer func() {
			for _, pt := range parts {
				ctx.account(-pt.bytes) // the groups die with the operator
			}
		}()
		if !routed { // cancelled mid-routing: state is partial, don't publish
			return
		}

		total := 0
		anySpilled := false
		for _, pt := range parts {
			total += len(pt.groups)
			if pt.run != nil {
				anySpilled = true
			}
		}
		// SQL semantics: a global aggregate (no GROUP BY) over empty input
		// yields exactly one row (count 0, sum/min/max/avg NULL). Appended
		// before the state iterator is published: once the point is Done
		// the group state must be immutable. A spilled run means the input
		// was not empty — its groups live on disk, not in total.
		if total == 0 && len(h.GroupBy) == 0 && !anySpilled {
			parts[0].groups = append(parts[0].groups, groupState{accs: make([]aggAcc, len(h.Aggs))})
		}

		if h.Point != nil {
			h.Point.setStateIter(func(emit func(types.Tuple) bool) {
				for _, pt := range parts {
					for i := range pt.groups {
						if !emit(pt.groups[i].groupVals) {
							return
						}
					}
				}
			})
			h.Point.done.Store(true)
			ctx.pointDone(h.Point)
		}

		// Out is counted per flushed batch at the send site (mirroring the
		// scan fix), so cancelled queries report exactly what was delivered.
		var arena rowArena
		batch := GetBatch()
		flush := func() bool {
			if len(batch.Tuples) == 0 {
				PutBatch(batch)
				return true
			}
			n := int64(len(batch.Tuples))
			if !send(ctx, out, batch) {
				return false
			}
			op.Out.Add(n)
			return true
		}
		for _, pt := range parts {
			if pt.run != nil {
				// Spilled partitions emit through the merge below; their
				// in-memory remainder joins the run there.
				continue
			}
			for gi := range pt.groups {
				gs := &pt.groups[gi]
				row := arena.alloc(len(gs.groupVals) + len(h.Aggs))
				copy(row, gs.groupVals)
				for i := range h.Aggs {
					argKind := types.KindFloat
					if h.Aggs[i].Arg != nil {
						argKind = h.Aggs[i].Arg.Kind()
					}
					row[len(gs.groupVals)+i] = gs.accs[i].result(h.Aggs[i].Func, argKind)
				}
				batch.Tuples = append(batch.Tuples, row)
				if len(batch.Tuples) == BatchSize {
					if !flush() {
						return
					}
					batch = GetBatch()
				}
			}
		}
		if !flush() {
			return
		}
		// Merge phase: sequential, so at most one rebuilt sub-bucket table
		// occupies the merge share at a time.
		for _, pt := range parts {
			if pt.run == nil {
				continue
			}
			if !pt.mergeSpill(ctx, op, len(h.GroupBy), h.Aggs, func(b Batch) bool {
				n := int64(b.Len())
				if !send(ctx, out, b) {
					return false
				}
				op.Out.Add(n)
				return true
			}) {
				return
			}
		}
	})
	return out
}

// Distinct is the pipelined duplicate eliminator: the first occurrence of a
// tuple is forwarded immediately; its state (the set of tuples seen) is AIP
// state like any other (the paper's Example 3.1 builds a hash set "from the
// state in the distinct operator"). It shares the join's radix partitioner:
// equal tuples always route to the same partition, so per-partition seen
// sets eliminate duplicates globally while running in parallel.
type Distinct struct {
	Name  string
	Child Op
	Point *Point
}

// Schema returns the child schema.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// distinctPart is one partition of the seen-set, owned by its worker. The
// embedded distinctCore carries the seen-set and the bucket-discard spill
// state (aggspill.go).
type distinctPart struct {
	in chan *scatter
	distinctCore
}

// Start launches the router and the per-partition dedup workers.
func (d *Distinct) Start(ctx *Context) <-chan Batch {
	in := d.Child.Start(ctx)
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("distinct:" + d.Name)
	if d.Point != nil {
		d.Point.Op = op
	}

	P := ctx.partitions()
	P = clampPartitions(P, pointEstRows(d.Point))
	ctx.addMemParts(P)
	op.SetPartitions(P)

	allCols := make([]int, d.Child.Schema().Len())
	for i := range allCols {
		allCols[i] = i
	}

	parts := make([]*distinctPart, P)
	partIns := make([]chan *scatter, P)
	for p := range parts {
		parts[p] = &distinctPart{in: make(chan *scatter, pipelineDepth)}
		partIns[p] = parts[p].in
	}

	// routed mirrors HashAgg: set only after a complete, uncancelled pass
	// over the input, gating the AIP state publication.
	routerDone := make(chan struct{})
	routed := false
	ctx.Spawn(func() {
		defer close(routerDone)
		var sc ProbeScratch // batch key hashing + AIP probing, hash-once
		keep := getSel()    // surviving selection when filters are attached
		rt := newInputRoute(0, P, partIns)
		rt.keys, rt.point, rt.op = allCols, d.Point, op
		defer func() { putSel(keep) }()
		for b := range in {
			sel := b.Live()
			rt.lanes(ctx, &sc, b.Tuples, sel, keep[:0], -1)
			op.In.Add(int64(len(sel)))
			PutBatch(b)
			if !rt.flush(ctx, 0) {
				return
			}
		}
		select {
		case <-ctx.Cancelled(): // truncated upstream, input not complete
		default:
			routed = true
		}
	})

	// failed is set when a worker could not deliver its output (cancel):
	// the seen-state is then incomplete and must not be published.
	var failed atomic.Bool
	var workerWg sync.WaitGroup
	workerWg.Add(P)
	for p := 0; p < P; p++ {
		pidx := p
		ctx.Spawn(func() {
			defer workerWg.Done()
			pt := parts[pidx]
			var (
				ids   []int32
				added []bool
			)
			for sb := range pt.in {
				var stored, storedBytes int64
				preBytes := pt.memBytes()
				n := len(sb.tuples)
				ids = growI32(ids, n)
				if cap(added) < n {
					added = make([]bool, n)
				}
				pt.idx.InsertBatch(sb.hashes, sb.keys, sb.offs, ids, added[:n])
				fresh := GetBatch()
				for i, t := range sb.tuples {
					if added[i] {
						// Clone the retained tuple: distinct keeps a sparse
						// subset of its input forever, and retaining
						// arena-backed rows directly would pin their blocks.
						pt.seen = append(pt.seen, t.Clone())
						stored++
						storedBytes += int64(t.MemSize())
						if d.Point != nil && d.Point.OnStore != nil {
							d.Point.OnStore(pidx, t)
						}
						// A spilled partition defers: this may duplicate an
						// evicted key, so the finalize replay decides.
						if !pt.deferred {
							fresh.Tuples = append(fresh.Tuples, t)
						}
					}
				}
				pt.tupBytes += storedBytes
				if delta := pt.memBytes() - preBytes; delta != 0 {
					ctx.account(delta)
					op.StateBytes.Add(delta)
					pt.bytes += delta
				}
				op.StateRows.Add(stored)
				pp := op.Part(pidx)
				pp.Rows.Add(stored)
				pp.Bytes.Add(storedBytes)
				if d.Point != nil {
					d.Point.stored.Add(stored)
				}
				// Out per flushed batch at the send site.
				if len(fresh.Tuples) == 0 {
					PutBatch(fresh)
				} else {
					n := int64(len(fresh.Tuples))
					if !send(ctx, out, fresh) {
						failed.Store(true)
						return
					}
					op.Out.Add(n)
				}
				if ctx.memPressure(pt.bytes, P) {
					if err := pt.evict(ctx, op, d.Point); err != nil {
						ctx.CancelCause(err)
						failed.Store(true)
						return
					}
				}
				putScatter(sb)
			}
		})
	}

	ctx.Spawn(func() {
		defer close(out)
		<-routerDone
		for _, pt := range parts {
			close(pt.in)
		}
		workerWg.Wait()
		defer func() {
			for _, pt := range parts {
				ctx.account(-pt.bytes) // the seen-set dies with the operator
			}
		}()
		if !routed || failed.Load() { // cancelled: seen-state is partial
			return
		}
		// Merge phase: spilled partitions replay their runs and emit the
		// deferred pending tuples whose keys were never claimed.
		for _, pt := range parts {
			if pt.run == nil {
				continue
			}
			if !pt.mergeSpill(ctx, op, func(b Batch) bool {
				n := int64(b.Len())
				if !send(ctx, out, b) {
					return false
				}
				op.Out.Add(n)
				return true
			}) {
				return
			}
		}
		if d.Point != nil {
			d.Point.setStateIter(func(emit func(types.Tuple) bool) {
				for _, pt := range parts {
					for _, t := range pt.seen {
						if !emit(t) {
							return
						}
					}
				}
			})
			d.Point.done.Store(true)
			ctx.pointDone(d.Point)
		}
	})
	return out
}
