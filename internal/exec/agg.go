package exec

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// HashAgg is the blocking hash-based aggregation operator. Its input is an
// AIP injection point: filters prune arriving tuples before they create or
// update groups, and once the input completes the set of group keys is
// available as AIP-set state (the paper's Example 3.2 builds a Bloom filter
// of PARTKEY "from the state in the aggregation operator").
//
// Like the join, the operator is radix partitioned: a router evaluates the
// group-by keys, hashes them once, and scatters tuples to P partitions by
// the top hash bits; every partition's state is owned by a single worker
// goroutine, so group maintenance for different partitions runs fully in
// parallel without locks (a group's key always routes to the same partition,
// so each group lives in exactly one). The state is columnar (aggState):
// typed columns per aggregate, indexed by the group id the partition's
// KeyTable assigns, which the workers fold into a scatter at a time — from
// the table's column vectors by row id when a scan routes for the operator —
// and eviction, the spill merge and the emit read.
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

// aggCol is one aggregate's state for every group of a partition: typed
// columns indexed by group id. cnt counts the non-NULL arguments folded
// (every row, for count(*)); acc names the one other column the function
// keeps, if any. Nothing is allocated per group, and only mm holds pointers.
type aggCol struct {
	f    plan.AggFunc
	acc  accKind
	cnt  []int64
	sum  []float64     // accSum
	isum []int64       // accISum
	mm   []types.Value // accMinMax: the extreme so far, NULL before the first value
}

// accKind names the column an aggregate keeps beside cnt.
type accKind uint8

const (
	accNone   accKind = iota // count, count(*)
	accSum                   // avg, and sum of a non-INT argument
	accISum                  // sum of an INT argument
	accMinMax                // min, max: ordered by types.Compare (NULL and NaN rules included)
)

// accBytes is what one group holds in an aggregate's columns, by accKind.
var accBytes = [...]int64{accNone: 8, accSum: 16, accISum: 16, accMinMax: 8 + int64(unsafe.Sizeof(types.Value{}))}

// grown extends s with zero elements to length n ≥ len(s).
func grown[T any](s []T, n int) []T { return append(s, make([]T, n-len(s))...) }

// fold adds argument value v to group g; a NULL adds nothing.
func (c *aggCol) fold(g int32, v types.Value) {
	if v.K == types.KindNull {
		return
	}
	c.cnt[g]++
	switch c.acc {
	case accSum:
		f, _ := v.AsFloat()
		c.sum[g] += f
	case accISum:
		if v.K == types.KindInt {
			c.isum[g] += v.I
		}
	case accMinMax:
		c.minmax(g, v)
	}
}

// minmax keeps v as group g's extreme when it is the first or orders
// strictly before (min) or after (max) the one kept.
func (c *aggCol) minmax(g int32, v types.Value) {
	cur := c.mm[g]
	if o := types.Compare(v, cur); cur.K == types.KindNull || o < 0 && c.f == plan.AggMin || o > 0 && c.f == plan.AggMax {
		c.mm[g] = v
	}
}

// foldVec folds an argument read from a column vector at the scattered row
// ids into the groups ids names: no value is NULL, and each is of kind kind.
func foldVec[T int64 | float64](c *aggCol, ids, rids []int32, vec []T, kind types.Kind) {
	switch c.acc {
	case accSum:
		for i, g := range ids {
			c.cnt[g]++
			c.sum[g] += float64(vec[rids[i]])
		}
	case accNone:
		for _, g := range ids {
			c.cnt[g]++
		}
	default:
		for i, g := range ids {
			v := types.Value{K: kind, I: int64(vec[rids[i]])}
			if kind == types.KindFloat {
				v = types.Float(float64(vec[rids[i]]))
			}
			c.fold(g, v)
		}
	}
}

// result is group g's value of the aggregate: a count is INT; any other
// aggregate of no value is NULL.
func (c *aggCol) result(g int) types.Value {
	switch {
	case c.acc == accNone:
		return types.Int(c.cnt[g])
	case c.cnt[g] == 0:
		return types.Null()
	case c.acc == accISum:
		return types.Int(c.isum[g])
	case c.f == plan.AggAvg:
		return types.Float(c.sum[g] / float64(c.cnt[g]))
	case c.acc == accSum:
		return types.Float(c.sum[g])
	}
	return c.mm[g]
}

// aggState is one partition's groups. The KeyTable gives each group key a
// dense id g; the group's key values are keys[g*gw : (g+1)*gw], carved from
// one growing block, and each aggregate's state is index g of its columns.
type aggState struct {
	idx        types.KeyTable
	gw         int // group-by width
	keys       []types.Value
	cols       []aggCol // per aggregate
	perGroup   int64    // Σ accBytes over the aggregates
	groupBytes int64    // Σ charge over the groups
}

func newAggState(gw int, aggs []plan.AggSpec) aggState {
	st := aggState{gw: gw, cols: make([]aggCol, len(aggs))}
	for k, a := range aggs {
		c := &st.cols[k]
		c.f = a.Func
		switch {
		case a.Func == plan.AggSum && a.Arg != nil && a.Arg.Kind() == types.KindInt:
			c.acc = accISum
		case a.Func == plan.AggSum || a.Func == plan.AggAvg:
			c.acc = accSum
		case a.Func == plan.AggMin || a.Func == plan.AggMax:
			c.acc = accMinMax
		}
		st.perGroup += accBytes[c.acc]
	}
	return st
}

// key returns group g's key values.
func (st *aggState) key(g int) types.Tuple {
	return st.keys[g*st.gw : (g+1)*st.gw : (g+1)*st.gw]
}

// charge is what a group keyed by kv holds: the key values' MemSize plus its
// column entries. memBytes is idx.MemSize() plus every group's charge.
func (st *aggState) charge(kv []types.Value) int64 {
	n := st.perGroup
	for _, v := range kv {
		n += int64(v.MemSize())
	}
	return n
}

func (st *aggState) memBytes() int64 { return int64(st.idx.MemSize()) + st.groupBytes }

// grow gives every column an entry per group the KeyTable holds; new groups
// start empty.
func (st *aggState) grow() {
	n := st.idx.Len()
	for k := range st.cols {
		c := &st.cols[k]
		c.cnt = grown(c.cnt, n)
		switch c.acc {
		case accSum:
			c.sum = grown(c.sum, n)
		case accISum:
			c.isum = grown(c.isum, n)
		case accMinMax:
			c.mm = grown(c.mm, n)
		}
	}
}

// reset empties the state, keeping its layout.
func (st *aggState) reset() {
	st.idx, st.keys, st.groupBytes = types.KeyTable{}, nil, 0
	for k, c := range st.cols {
		st.cols[k] = aggCol{f: c.f, acc: c.acc}
	}
}

// emitRows appends each group's row (key values, then the aggregates) to
// *batch, handing each full batch to emit; false when emit refused one.
func (st *aggState) emitRows(arena *rowArena, batch *Batch, emit func(Batch) bool) bool {
	for g := 0; g < st.idx.Len(); g++ {
		row := arena.alloc(st.gw + len(st.cols))
		copy(row, st.key(g))
		for k := range st.cols {
			row[st.gw+k] = st.cols[k].result(g)
		}
		batch.Tuples = append(batch.Tuples, row)
		if len(batch.Tuples) == BatchSize {
			if !emit(*batch) {
				return false
			}
			*batch = GetBatch()
		}
	}
	return true
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

// aggPart is one radix partition of the aggregation, owned by its worker
// goroutine. The embedded aggCore carries the state and the bucket-discard
// spill state (aggspill.go).
type aggPart struct {
	in chan *scatter
	aggCore
}

// aggWorker is a partition worker's fold scratch. Per aggregate: the column
// vector its argument is read from when a scan routes (floats, or ints of kind
// kinds), else the argument's kernel (nil for count(*)) and lane column.
type aggWorker struct {
	h      *HashAgg
	pidx   int
	floats [][]float64
	ints   [][]int64
	kinds  []types.Kind
	args   []*expr.Compiled
	vals   [][]types.Value
	ids    []int32 // per lane: its group id
	added  []bool
}

// newWorker returns partition pidx's worker; vecs is the routing scan's table.
func (h *HashAgg) newWorker(pidx int, vecs TableVectors) *aggWorker {
	n := len(h.Aggs)
	w := &aggWorker{h: h, pidx: pidx, floats: make([][]float64, n), ints: make([][]int64, n),
		kinds: make([]types.Kind, n), args: make([]*expr.Compiled, n), vals: make([][]types.Value, n)}
	for k, a := range h.Aggs {
		w.args[k] = expr.Compile(a.Arg) // nil Arg compiles to nil
		if cr, ok := a.Arg.(*expr.ColRef); ok && vecs != nil {
			w.ints[k], w.kinds[k] = vecs.IntVec(cr.Idx)
			w.floats[k] = vecs.FloatVec(cr.Idx)
		}
	}
	return w
}

// fold folds one scatter into st column-at-a-time: every lane's group id
// first (a new group stores its key, evaluated over its first row), then one
// pass over the ids per aggregate, reading the argument from its vector by
// row id or else from the batch kernel's lane column. Each group folds its
// rows in arrival order. It returns the groups created and their charge.
func (w *aggWorker) fold(st *aggState, sb *scatter) (groups, bytes int64) {
	n := sb.len()
	for k, c := range w.args {
		if c == nil || w.floats[k] != nil || w.ints[k] != nil {
			continue
		}
		if sb.src != nil && len(sb.tuples) == 0 {
			// An argument no vector backs: resolve the headers.
			for _, r := range sb.rids {
				sb.tuples = append(sb.tuples, sb.src.rows[r])
			}
		}
		w.vals[k] = growVals(w.vals[k], n)
		c.EvalBatch(sb.tuples, identSel(n), w.vals[k])
	}
	ids := growI32(w.ids, n)
	w.ids = ids
	if cap(w.added) < n {
		w.added = make([]bool, n)
	}
	sb.insert(&st.idx, ids, w.added[:n])
	for i, added := range w.added[:n] {
		if !added {
			continue
		}
		t := sb.tuple(i)
		for _, e := range w.h.GroupBy {
			st.keys = append(st.keys, e.Eval(t))
		}
		key := st.key(int(ids[i]))
		groups++
		bytes += st.charge(key)
		if pt := w.h.Point; pt != nil && pt.OnStore != nil {
			pt.OnStore(w.pidx, key)
		}
	}
	st.grow()
	st.groupBytes += bytes
	for k := range st.cols {
		switch c, vals := &st.cols[k], w.vals[k]; {
		case w.floats[k] != nil:
			foldVec(c, ids, sb.rids, w.floats[k], types.KindFloat)
		case w.ints[k] != nil:
			foldVec(c, ids, sb.rids, w.ints[k], w.kinds[k])
		case w.args[k] == nil: // count(*)
			for _, g := range ids {
				c.cnt[g]++
			}
		default:
			for i, g := range ids {
				c.fold(g, vals[i])
			}
		}
	}
	return groups, bytes
}

// absorb folds one scatter into the partition, accounts what the state grew
// by, and evicts under memory pressure.
func (pt *aggPart) absorb(ctx *Context, op *stats.OpStats, w *aggWorker, sb *scatter, P int) error {
	pre := pt.memBytes()
	groups, bytes := w.fold(&pt.aggState, sb)
	putScatter(sb)
	// Delta-based over the full footprint, so StateBytes moves by the same delta.
	if delta := pt.memBytes() - pre; delta != 0 {
		ctx.account(delta)
		op.StateBytes.Add(delta)
		pt.bytes += delta
	}
	op.StateRows.Add(groups)
	pp := op.Part(w.pidx)
	pp.Rows.Add(groups)
	pp.Bytes.Add(bytes)
	if w.h.Point != nil {
		w.h.Point.stored.Add(groups)
	}
	if ctx.memPressure(pt.bytes, P) {
		return pt.evict(ctx, op, w.h.Point)
	}
	return nil
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
			aggCore: aggCore{aggState: newAggState(len(h.GroupBy), h.Aggs)}}
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
	// themselves), and the workers fold plain vector-backed arguments from
	// the vectors by row id.
	var vecs TableVectors
	keyCols := colRefs(h.GroupBy)
	if sc, pred := routingScan(h.Child, h.Point, keyCols); sc != nil {
		vecs = sc.Vecs
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

	var workerWg sync.WaitGroup
	workerWg.Add(P)
	for p, pt := range parts {
		w := h.newWorker(p, vecs)
		ctx.Spawn(func() {
			defer workerWg.Done()
			for sb := range pt.in {
				if err := pt.absorb(ctx, op, w, sb, P); err != nil {
					ctx.CancelCause(err)
					return
				}
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
			total += pt.idx.Len()
			if pt.run != nil {
				anySpilled = true
			}
		}
		// SQL semantics: a global aggregate (no GROUP BY) over empty input
		// yields exactly one row (count 0, sum/min/max/avg NULL). Added
		// before the state iterator is published: once the point is Done
		// the group state must be immutable. A spilled run means the input
		// was not empty — its groups live on disk, not in total.
		if total == 0 && len(h.GroupBy) == 0 && !anySpilled {
			parts[0].idx.Insert(0, nil)
			parts[0].grow()
		}

		if h.Point != nil {
			h.Point.setStateIter(func(emit func(types.Tuple) bool) {
				for _, pt := range parts {
					for g := 0; g < pt.idx.Len(); g++ {
						if !emit(pt.key(g)) {
							return
						}
					}
				}
			})
			h.Point.done.Store(true)
			ctx.pointDone(h.Point)
		}

		// Out is counted per delivered batch at the send site (mirroring the
		// scan fix), so cancelled queries report exactly what was delivered.
		emit := func(b Batch) bool {
			n := int64(b.Len())
			if !send(ctx, out, b) {
				return false
			}
			op.Out.Add(n)
			return true
		}
		var arena rowArena
		batch := GetBatch()
		for _, pt := range parts {
			if !pt.finish(ctx, op, &arena, &batch, emit) {
				return
			}
		}
		if batch.Len() == 0 {
			PutBatch(batch)
		} else {
			emit(batch)
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
				sb.insert(&pt.idx, ids, added[:n])
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
