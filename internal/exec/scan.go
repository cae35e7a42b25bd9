package exec

import (
	"errors"
	"math"
	"time"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/types"
)

// DelayConfig reproduces the paper's §VI-B source-delay model: an initial
// delay before the first tuple, then a fixed pause every N tuples ("delayed
// by 100msec and rate-limited by injecting a 5msec delay every 1000
// tuples"). The Burst and Fault fields extend the model to flaky sources:
// bursty silence and injected failures the recovery policy must outlast.
type DelayConfig struct {
	Initial time.Duration
	EveryN  int
	Pause   time.Duration

	// BurstEveryN / BurstPause model a bursty source: after every
	// BurstEveryN tuples the stream goes quiet for BurstPause — coarse
	// stop-and-go on top of EveryN's fine-grained rate limit.
	BurstEveryN int
	BurstPause  time.Duration

	// Fault, when active, injects per-batch source failures (transient
	// errors, stalls) drawn deterministically from the profile's seed. The
	// Context's Recovery policy drives retries; an exhausted source fails
	// the query or degrades it to a partial result per the FailureMode.
	Fault *network.FaultProfile
}

// scanChunkRows is the granule of source-side selection: a scan evaluates
// its pushed predicates and probes its consumer's AIP filters over this many
// table rows at a time. Large enough to amortize the per-chunk bank snapshot
// and stats flush, small enough that a filter published mid-scan applies
// almost at once and the lane scratch stays in L1.
const scanChunkRows = 1024

// Scan streams a base table.
//
// An unpaced, undelayed scan is the first place selection happens: per
// scanChunkRows-row chunk it evaluates the predicate of a Filter directly
// above it (Filter.sourceScan; typed column ⊕ constant conjuncts over the
// table's column vectors, anything else through the row kernels), probes the
// FilterBank of the operator input it feeds (Point), and emits only the
// surviving rows, compacted into dense batches — a chunk with no survivor
// sends nothing. A paced, delayed or fault-injected scan (sequential) does
// none of this: its flush boundaries model the source, so it emits every row
// and the Filter and the consumer select as they always did.
type Scan struct {
	Name  string
	Rows  []types.Tuple
	Sch   *types.Schema
	Delay *DelayConfig

	// Table is the base table this scan streams; it names the source in
	// SourceError and ties the scan to the abandoned-source set under
	// PartialOnSourceError. Empty for synthetic scans.
	Table string
	// Site is the executing node, keying the per-site circuit breaker.
	Site int

	// BytesPerSec paces the scan like a disk or source stream (the paper's
	// non-delayed experiments "streamed data directly from disk"): large
	// relations finish proportionally later than small ones, which is what
	// staggers subexpression completion times. Zero means unpaced.
	BytesPerSec int64

	// Vecs is the typed-vector view of the table Rows belongs to (row i of
	// every vector is Rows[i]); nil for synthetic scans, which select with
	// the row kernels only and never route.
	Vecs TableVectors

	// Point is the operator input this scan feeds when nothing but Filters
	// sits between them (so rows and columns arrive unchanged): the scan
	// probes Point.Bank itself and accounts what it drops there — each
	// pruned row once in Point.Op.Pruned and once in the point's received
	// count; the consumer counts the survivors when they arrive, so every
	// row is counted exactly once. The consumer must have set Point.Op
	// before it starts this scan. Nil when the consumer probes alone.
	Point *Point
}

// TableVectors is a base table as a scan selects and routes over it: the
// typed column vectors, and Tuple.MemSize of each row (fixed when all rows
// share it, else sizes[i]).
type TableVectors interface {
	expr.ColumnVectors
	RowBytes() (fixed int32, sizes []int32)
}

// Schema returns the scan's output schema.
func (s *Scan) Schema() *types.Schema { return s.Sch }

// sequential reports whether the scan must run as a single ordered stream
// that emits every row: pacing and delay model flush boundaries, and the
// deterministic fault injector draws one decision per flush, so selecting at
// the source (or range-splitting) would change the failure sequence a seed
// reproduces and the wall time the modeled link is meant to show.
func (s *Scan) sequential() bool {
	return s.Delay != nil || s.BytesPerSec > 0
}

// scanWorker is one goroutine's state for the chunk kernel: the residual
// predicate (a Compiled carries scratch) and the lane scratch.
type scanWorker struct {
	typed []*expr.VecCmp // conjuncts with a vector kernel; stateless, shared
	rest  *expr.Compiled // the other conjuncts, on the row kernels; may be nil
	sel   []int32        // chunk-lane selection scratch
	sc    ProbeScratch
}

// splitScanPred separates pred's conjuncts into those with a typed vector
// kernel over s.Vecs and the rest. A conjunct that is not boolean-kinded
// keeps the whole predicate on the row kernels: AND passes such an operand
// where a lone predicate drops it, so regrouping conjuncts around it could
// change the answer.
func (s *Scan) splitScanPred(pred expr.Expr) (typed []*expr.VecCmp, rest expr.Expr) {
	if s.Vecs == nil {
		return nil, pred
	}
	var others []expr.Expr
	for _, c := range expr.SplitConjuncts(pred) {
		if c.Kind() != types.KindBool {
			return nil, pred
		}
		if k := expr.CompileVecCmp(c, s.Vecs); k != nil {
			typed = append(typed, k)
		} else {
			others = append(others, c)
		}
	}
	return typed, expr.And(others...)
}

// newWorker sizes the lane scratch to a chunk of this table: a point lookup's
// 25-row scan must not allocate a full chunk's 4 KiB.
func (s *Scan) newWorker(typed []*expr.VecCmp, rest expr.Expr) *scanWorker {
	w := &scanWorker{typed: typed, rest: expr.Compile(rest), sel: make([]int32, 0, min(scanChunkRows, len(s.Rows)))}
	w.sc.vecs = s.Vecs
	return w
}

// sift runs the pushed predicates — typed kernels, then the residual — over
// table rows [lo, hi) and returns the surviving lanes; nil means every lane.
func (w *scanWorker) sift(s *Scan, lo, hi int) []int32 {
	var sel []int32
	for _, k := range w.typed {
		sel = k.Sift(lo, hi, sel, w.sel[:0])
	}
	if w.rest != nil {
		if sel == nil {
			sel = w.rest.EvalBool(s.Rows[lo:hi], identSel(hi-lo), w.sel)
		} else if len(sel) > 0 {
			sel = w.rest.EvalBool(s.Rows[lo:hi], sel, sel)
		}
	}
	return sel
}

// chunk is the scan kernel: it selects over table rows [lo, hi) — pushed
// predicates, then the consumer's filter bank, read once for the whole
// chunk — and appends the survivors' row headers to *batch,
// handing every full batch to emit (which takes ownership) and leaving the
// remainder in *batch for the caller to carry or flush. Batches never alias
// s.Rows: headers are copied, so a recycled batch cannot hand table storage
// to a writer. It returns false when emit did; *batch is then spent.
func (w *scanWorker) chunk(s *Scan, op *stats.OpStats, lo, hi int, batch *Batch, emit func(Batch) bool) bool {
	rows := s.Rows[lo:hi]
	n := len(rows)
	sel := w.sift(s, lo, hi)
	if pt := s.Point; pt != nil && pt.Bank.Len() > 0 && (sel == nil || len(sel) > 0) {
		live := sel
		if live == nil {
			live = identSel(n)
		}
		w.sc.vecLo = lo
		sel = pt.Bank.ProbeBatch(rows, nil, live, w.sel[:0], &w.sc)
		if pruned := int64(len(live) - len(sel)); pruned > 0 {
			pt.Op.Pruned.Add(pruned)
			pt.received.Add(pruned)
		}
	}
	op.In.Add(int64(n))
	// full hands a filled batch on and starts the next one.
	full := func() bool {
		if len(batch.Tuples) < BatchSize {
			return true
		}
		if !emit(*batch) {
			return false
		}
		*batch = GetBatch()
		return true
	}
	if sel == nil { // every row survives: copy headers a run at a time
		for len(rows) > 0 {
			take := min(BatchSize-len(batch.Tuples), len(rows))
			batch.Tuples = append(batch.Tuples, rows[:take]...)
			rows = rows[take:]
			if !full() {
				return false
			}
		}
		return true
	}
	for _, l := range sel {
		batch.Tuples = append(batch.Tuples, rows[l])
		if !full() {
			return false
		}
	}
	return true
}

// scanUnder returns the scan child is, or the one below the Filter child is
// that evaluates it at the source, with that Filter's predicate; else nil.
func scanUnder(child Op) (*Scan, expr.Expr) {
	if f, ok := child.(*Filter); ok {
		return f.sourceScan(), f.Pred
	}
	sc, _ := child.(*Scan)
	return sc, nil
}

// routingScan returns the scan under child that can route for the consumer
// input pt keyed on keys, with the predicate of the Filter between them (or
// nil): a wired scan that selects at the source (Scan.Point == pt, so only
// that Filter sits in between) whose key columns all have an IntVec, over a
// table int32 row ids can address. Anything else keeps the router goroutine.
func routingScan(child Op, pt *Point, keys []int) (*Scan, expr.Expr) {
	sc, pred := scanUnder(child)
	if sc == nil || pt == nil || sc.Point != pt || sc.sequential() || sc.Vecs == nil ||
		len(keys) == 0 || len(sc.Rows) > math.MaxInt32 {
		return nil, nil
	}
	for _, k := range keys {
		if v, _ := sc.Vecs.IntVec(k); v == nil {
			return nil, nil
		}
	}
	return sc, pred
}

// route is chunk for a routing scan: the rows of [lo, hi) that pass the
// pushed predicates go through the consumer's route (inputRoute.lanes), at
// most one delivery per partition per chunk. The scan counts for the router
// it replaces: the consumer's In is what got past the bank (the scan's Out).
func (w *scanWorker) route(ctx *Context, s *Scan, op *stats.OpStats, lo, hi int, rt *inputRoute) bool {
	live := w.sift(s, lo, hi)
	if live == nil {
		live = identSel(hi - lo)
	}
	op.In.Add(int64(hi - lo))
	if len(live) == 0 {
		return true
	}
	w.sc.vecLo = lo
	kept := int64(len(rt.lanes(ctx, &w.sc, s.Rows[lo:hi], live, w.sel[:0], int32(lo))))
	op.Out.Add(kept)
	rt.op.In.Add(kept)
	return rt.flush(ctx, BatchSize)
}

// refs is chunk for the row-id root: the survivors of [lo, hi) join batch.Sel,
// the batch leaving first when they would not fit.
func (w *scanWorker) refs(s *Scan, op *stats.OpStats, lo, hi int, batch *Batch, emit func(Batch) bool) bool {
	sel := w.sift(s, lo, hi)
	op.In.Add(int64(hi - lo))
	if sel == nil {
		sel = identSel(hi - lo)
	}
	if len(batch.Sel)+len(sel) > scanChunkRows {
		if !emit(*batch) {
			return false
		}
		batch.Sel = getSel()
	}
	for _, l := range sel {
		batch.Sel = append(batch.Sel, int32(lo)+l)
	}
	return true
}

// Start launches the scan goroutine. All per-run state (the stats handle
// included) lives in the goroutine, so one Scan value can back many
// concurrent executions of a prepared plan.
func (s *Scan) Start(ctx *Context) <-chan Batch {
	if s.sequential() {
		return s.startSequential(ctx)
	}
	return s.start(ctx, nil, nil, nil)
}

// start runs the scan over the whole table on one goroutine, with pred (the
// Filter above, or nil) evaluated at the source: the chunk kernel feeding an
// output channel, or — rt non-nil — the route kernel as rt's router, with
// rt.done in place of closing a channel, or — src non-nil — the refs kernel
// feeding the root's channel row-id batches over src. Survivors carry over
// from chunk to chunk, so a heavily pruned scan still sends full batches (or
// scatters).
func (s *Scan) start(ctx *Context, pred expr.Expr, rt *inputRoute, src *RootSource) <-chan Batch {
	op := ctx.Stats.NewOp("scan:" + s.Name)
	var proj *stats.OpStats
	if src != nil {
		proj = ctx.Stats.NewOp("project:" + src.name)
	}
	partialMode := ctx.Recovery.Mode == PartialOnSourceError && s.Table != ""
	var out chan Batch
	if rt == nil {
		out = make(chan Batch, pipelineDepth)
	} else {
		op.Routed = rt.op.Name
		fixed, sizes := s.Vecs.RowBytes()
		rt.src = &rowSource{rows: s.Rows, fixed: int64(fixed), sizes: sizes}
	}
	ctx.Spawn(func() {
		if rt == nil {
			defer close(out)
		} else {
			defer func() { rt.done(ctx.Err() == nil) }()
		}
		if !ctx.awaitStart(s.Point, op) {
			return
		}
		w := s.newWorker(s.splitScanPred(pred))
		emit := func(b Batch) bool {
			n := int64(b.Len())
			if !send(ctx, out, b) {
				return false
			}
			op.Out.Add(n)
			if proj != nil {
				proj.In.Add(n)
				proj.Out.Add(n)
			}
			return true
		}
		var batch Batch
		step := func(lo, hi int) bool { return w.chunk(s, op, lo, hi, &batch, emit) }
		switch {
		case rt != nil:
			step = func(lo, hi int) bool { return w.route(ctx, s, op, lo, hi, rt) }
			rt.keyVecs = make([][]int64, len(rt.keys))
			for i, k := range rt.keys {
				rt.keyVecs[i], _ = s.Vecs.IntVec(k)
			}
		case src != nil:
			batch = Batch{Src: src, Sel: getSel()}
			step = func(lo, hi int) bool { return w.refs(s, op, lo, hi, &batch, emit) }
		default:
			batch = GetBatch()
		}
		for lo := 0; lo < len(s.Rows); lo += scanChunkRows {
			// A pruned chunk sends nothing, so cancellation — and a sibling
			// stream of the same table having been abandoned, which ends the
			// input early but whole — is checked here, not only at the send.
			if ctx.Err() != nil || partialMode && ctx.SourceAbandoned(s.Table) {
				PutBatch(batch)
				return
			}
			if !step(lo, min(lo+scanChunkRows, len(s.Rows))) {
				return
			}
		}
		if rt != nil {
			rt.flush(ctx, 0)
		} else if batch.Len() == 0 {
			PutBatch(batch)
		} else {
			emit(batch)
		}
	})
	return out
}

// startSequential runs a paced, delayed or fault-injected source on its own
// goroutine, feeding the output channel.
func (s *Scan) startSequential(ctx *Context) <-chan Batch {
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("scan:" + s.Name)
	ctx.Spawn(func() {
		defer close(out)
		s.runSequential(ctx, op, func(b Batch) bool { return send(ctx, out, b) })
	})
	return out
}

// runSequential is the per-tuple loop of a sequential source: flush
// boundaries, pacing and fault draws are the source model (see Scan), so a
// seeded failure sequence reproduces identically.
// emit delivers one batch, taking ownership, and reports false when the
// query was cancelled. It returns on exhausted input, cancellation,
// partial-mode abandonment, or source failure.
func (s *Scan) runSequential(ctx *Context, op *stats.OpStats, emit func(Batch) bool) {
	// Fault plumbing: one deterministic injector and one retry driver per
	// run, both derived from the scan's name so (plan, seed) reproduces the
	// same failure sequence.
	var inj *network.FaultInjector
	var ret *retrier
	if s.Delay != nil && s.Delay.Fault.Active() {
		inj = s.Delay.Fault.Injector("scan:" + s.Name)
		ret = newRetrier(ctx, op, s.Site, "scan:"+s.Name)
	}
	partialMode := ctx.Recovery.Mode == PartialOnSourceError && s.Table != ""
	if s.Delay != nil && s.Delay.Initial > 0 {
		select {
		case <-time.After(s.Delay.Initial):
		case <-ctx.Cancelled():
			return
		}
	}
	batch := GetBatch()
	count := 0
	var cumBytes int64
	start := time.Now()
	// readAttempt models one read from the flaky source: it draws the
	// injected fault decision for this attempt. A stalled read blocks on
	// the retrier's stop channel (per-attempt timeout or cancellation).
	readAttempt := func(stop <-chan struct{}) error {
		switch k := inj.Next(); k {
		case network.FaultNone:
			return nil
		case network.FaultStall:
			<-stop
			return network.ErrCancelled // timeout converts this to ErrAttemptTimeout
		default:
			return &network.FaultError{Kind: k}
		}
	}
	// flush sends the current batch (counting output per flushed batch,
	// so cancelled or short-circuited scans still report what they
	// emitted) and pays any accumulated pacing debt. The final flush
	// passes last=true to recycle instead of refilling the batch.
	flush := func(last bool) bool {
		if len(batch.Tuples) == 0 {
			// Pacing debt was settled by the preceding non-empty flush
			// (cumBytes is unchanged since), so just recycle.
			if last {
				PutBatch(batch)
			}
			return true
		}
		// A sibling stream of the same table may have been abandoned;
		// stop producing rather than feed a query that gave up on us.
		if partialMode && ctx.SourceAbandoned(s.Table) {
			PutBatch(batch)
			batch = Batch{}
			return false
		}
		if ret != nil {
			if err := ret.do(readAttempt); err != nil {
				PutBatch(batch)
				batch = Batch{}
				if !errors.Is(err, network.ErrCancelled) {
					ctx.FailSource(&SourceError{
						Table: s.Table, Site: s.Site,
						Attempts: ret.attempts, Cause: err,
					})
				}
				return false
			}
		}
		n := int64(len(batch.Tuples))
		if !emit(batch) {
			batch = Batch{}
			return false
		}
		op.In.Add(n)
		op.Out.Add(n)
		if s.BytesPerSec > 0 {
			// Pace against a cumulative deadline; sleeping only when
			// the debt exceeds a couple of milliseconds keeps the rate
			// accurate despite coarse timer granularity.
			target := time.Duration(float64(cumBytes) / float64(s.BytesPerSec) * float64(time.Second))
			if debt := target - time.Since(start); debt > 2*time.Millisecond {
				select {
				case <-time.After(debt):
				case <-ctx.Cancelled():
					return false
				}
			}
		}
		if last {
			batch = Batch{}
		} else {
			batch = GetBatch()
		}
		return true
	}
	for _, t := range s.Rows {
		batch.Tuples = append(batch.Tuples, t)
		count++
		if s.BytesPerSec > 0 {
			cumBytes += int64(t.MemSize())
		}
		if s.Delay != nil && s.Delay.EveryN > 0 && count%s.Delay.EveryN == 0 {
			if !flush(false) {
				return
			}
			select {
			case <-time.After(s.Delay.Pause):
			case <-ctx.Cancelled():
				return
			}
			continue
		}
		if s.Delay != nil && s.Delay.BurstEveryN > 0 && count%s.Delay.BurstEveryN == 0 {
			if !flush(false) {
				return
			}
			select {
			case <-time.After(s.Delay.BurstPause):
			case <-ctx.Cancelled():
				return
			}
			continue
		}
		if len(batch.Tuples) == BatchSize {
			if !flush(false) {
				return
			}
		}
	}
	flush(true)
}

// Filter applies a predicate by narrowing each batch's selection vector:
// survivors are marked, not copied, so the tuple slice flows through
// untouched and the steady-state filter path performs zero allocations per
// batch. The predicate runs through the vectorized EvalBool kernels; stats
// are flushed once per batch.
type Filter struct {
	Child Op
	Pred  expr.Expr
	Name  string
}

// Schema returns the child schema.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// sourceScan returns the child scan when it can evaluate the predicate
// itself, at the source: a local one that is not sequential. A remote scan
// is left alone — the Ship above it charges the modeled link per batch, and
// compacting survivors would change the message (and fault-draw) sequence.
func (f *Filter) sourceScan() *Scan {
	if sc, ok := f.Child.(*Scan); ok && !sc.sequential() && sc.Site == 0 {
		return sc
	}
	return nil
}

// Start launches the filter goroutine — unless the child scan takes the
// predicate (no filter goroutine and no filter:* stats row; the scan's
// In/Out carry it).
func (f *Filter) Start(ctx *Context) <-chan Batch {
	if sc := f.sourceScan(); sc != nil {
		return sc.start(ctx, f.Pred, nil, nil)
	}
	in := f.Child.Start(ctx)
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("filter:" + f.Name)
	pred := expr.Compile(f.Pred)
	ctx.Spawn(func() {
		defer close(out)
		for b := range in {
			op.In.Add(int64(b.Len()))
			var sel []int32
			if b.Sel != nil {
				// Narrow the incoming selection in place: EvalBool only
				// appends lanes it has already read, so the output may share
				// the input's backing array.
				sel = pred.EvalBool(b.Tuples, b.Sel, b.Sel)
			} else {
				sel = pred.EvalBool(b.Tuples, identSel(len(b.Tuples)), getSel())
			}
			b.Sel = sel
			if len(sel) == 0 {
				PutBatch(b)
				continue
			}
			n := int64(len(sel))
			if !send(ctx, out, b) {
				return
			}
			op.Out.Add(n)
		}
	})
	return out
}

// Project computes output expressions one expression at a time over the
// whole batch (vectorized EvalBatch into a lane-indexed column scratch),
// then scatters the column into arena-backed output rows: one backing
// allocation per ~BatchSize rows rather than one per row, and no per-tuple
// expression-tree walks.
type Project struct {
	Child Op
	Exprs []expr.Expr
	Sch   *types.Schema
	Name  string
}

// Schema returns the projection schema.
func (p *Project) Schema() *types.Schema { return p.Sch }

// rootScan returns, when p is plain column references directly over a scan
// that selects at the source (the Filter.sourceScan test) of a vector-backed
// table, that scan, the predicate it absorbs, and the projection as the source
// of the row-id batches it emits in p's stead when p is the root (StartPlan).
func (p *Project) rootScan() (*Scan, expr.Expr, *RootSource) {
	sc, pred := scanUnder(p.Child)
	if sc == nil || sc.sequential() || sc.Site != 0 || sc.Point != nil || sc.Vecs == nil || len(sc.Rows) > math.MaxInt32 {
		return nil, nil, nil
	}
	src := &RootSource{Rows: sc.Rows, Vecs: sc.Vecs, Cols: make([]int, len(p.Exprs)), name: p.Name}
	for i, e := range p.Exprs {
		c, ok := e.(*expr.ColRef)
		if !ok {
			return nil, nil, nil
		}
		src.Cols[i] = c.Idx
	}
	return sc, pred, src
}

// Start launches the projection goroutine.
func (p *Project) Start(ctx *Context) <-chan Batch {
	in := p.Child.Start(ctx)
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("project:" + p.Name)
	compiled := make([]*expr.Compiled, len(p.Exprs))
	for i, e := range p.Exprs {
		compiled[i] = expr.Compile(e)
	}
	ctx.Spawn(func() {
		defer close(out)
		var (
			arena rowArena
			col   []types.Value // lane-indexed column scratch
			rows  []types.Tuple // per-batch output row scratch
		)
		width := len(compiled)
		for b := range in {
			sel := b.Live()
			n := len(sel)
			op.In.Add(int64(n))
			if n == 0 {
				PutBatch(b)
				continue
			}
			rows = rows[:0]
			for k := 0; k < n; k++ {
				rows = append(rows, arena.alloc(width))
			}
			col = growVals(col, len(b.Tuples))
			for j, c := range compiled {
				c.EvalBatch(b.Tuples, sel, col)
				for k, lane := range sel {
					rows[k][j] = col[lane]
				}
			}
			res := GetBatch()
			res.Tuples = append(res.Tuples, rows...)
			PutBatch(b)
			if !send(ctx, out, res) {
				return
			}
			op.Out.Add(int64(n))
		}
	})
	return out
}
