package exec

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

	// Fault, when active, injects per-read source failures (transient
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
// A scan is the first place selection happens: per scanChunkRows-row chunk
// it evaluates the predicate of a Filter directly above it
// (Filter.sourceScan; typed column ⊕ constant conjuncts over the table's
// column vectors, anything else through the row kernels), probes the
// FilterBank of the operator input it feeds (Point), and emits only the
// surviving rows, compacted into dense batches — a chunk with no survivor
// sends nothing. The chunks are the reads of the scan's source model
// (sourceModel), which a delayed or fault-injected scan cuts shorter.
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
// typed column vectors, an integer vector's [min, max], and Tuple.MemSize of
// each row (fixed when all rows share it, else sizes[i]).
type TableVectors interface {
	expr.ColumnVectors
	IntRange(col int) (lo, hi int64, ok bool)
	RowBytes() (fixed int32, sizes []int32)
}

// Schema returns the scan's output schema.
func (s *Scan) Schema() *types.Schema { return s.Sch }

// modeled reports whether the scan models its source (a Delay): its timing
// is the model's, so start order neither ranks it (RankSources) nor lets it
// take the row-id root (Project.rootScan).
func (s *Scan) modeled() bool { return s.Delay != nil }

// scanWorker is one goroutine's state for the chunk kernel: the typed and
// the residual predicates (both may carry scratch) and the lane scratch.
type scanWorker struct {
	typed []*expr.VecCmp // conjuncts with a vector kernel
	rest  *expr.Compiled // the other conjuncts, on the row kernels; may be nil
	sel   []int32        // chunk-lane selection scratch
	sc    ProbeScratch

	coded, conjuncts int // typed conjuncts over dictionary codes; all of pred's
}

// splitScanPred separates pred's conjuncts into those with a typed vector
// kernel over s.Vecs and the rest, and counts them all. A conjunct that is
// not boolean-kinded keeps the whole predicate on the row kernels: AND passes
// such an operand where a lone predicate drops it, so regrouping conjuncts
// around it could change the answer.
func (s *Scan) splitScanPred(pred expr.Expr) (typed []*expr.VecCmp, rest expr.Expr, n int) {
	conj := expr.SplitConjuncts(pred)
	if s.Vecs == nil {
		return nil, pred, len(conj)
	}
	var others []expr.Expr
	for _, c := range conj {
		if c.Kind() != types.KindBool {
			return nil, pred, len(conj)
		}
		if k := expr.CompileVecCmp(c, s.Vecs); k != nil {
			typed = append(typed, k)
		} else {
			others = append(others, c)
		}
	}
	return typed, expr.And(others...), len(conj)
}

// newWorker compiles pred for one scan goroutine and sizes the lane scratch
// to a chunk of this table: a point lookup's 25-row scan must not allocate a
// full chunk's 4 KiB.
func (s *Scan) newWorker(pred expr.Expr) *scanWorker {
	typed, rest, n := s.splitScanPred(pred)
	w := &scanWorker{typed: typed, rest: expr.Compile(rest), sel: make([]int32, 0, min(scanChunkRows, len(s.Rows))), conjuncts: n}
	for _, k := range typed {
		if k.Coded() {
			w.coded++
		}
	}
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
	if sc == nil || pt == nil || sc.Point != pt || sc.Vecs == nil ||
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
	return s.start(ctx, nil, nil, nil)
}

// start runs the scan over the whole table, with pred (the Filter above, or
// nil) evaluated at the source: the chunk kernel feeding an output channel,
// or — rt non-nil — the route kernel as rt's router, with rt.done in place of
// closing a channel, or — src non-nil — the refs kernel feeding the root's
// channel row-id batches over src. Survivors carry over from chunk to chunk,
// so a heavily pruned scan still sends full batches (or scatters). The chunks
// are the source model's reads (sourceModel.run), on one goroutine, except
// for a routing scan of an unmodeled source outside partial mode, whose
// chunk workers claim them (fanRoute). A routing scan that waits for its join
// sibling holds its deliveries instead of its first chunk, then probes at the
// source (inputRoute.hold).
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
		ok, sibling := ctx.awaitStart(s.Point, op, rt != nil)
		if !ok {
			return
		}
		w := s.newWorker(pred)
		op.Typed, op.Coded, op.Conjuncts = len(w.typed), w.coded, w.conjuncts
		defer func() { op.RunProbes.Add(int64(w.sc.runs)) }()
		emit := func(b Batch) bool {
			if proj != nil {
				return send(ctx, out, b, &op.Out, &proj.In, &proj.Out)
			}
			return send(ctx, out, b, &op.Out)
		}
		var batch Batch
		step := func(lo, hi int) bool { return w.chunk(s, op, lo, hi, &batch, emit) }
		switch {
		case rt != nil:
			rt.keyVecs = make([][]int64, len(rt.keys))
			for i, k := range rt.keys {
				rt.keyVecs[i], _ = s.Vecs.IntVec(k)
			}
			if len(rt.keys) == 1 {
				rt.lo, rt.hi, rt.ranged = s.Vecs.IntRange(rt.keys[0])
			}
			rt.await = sibling
			if s.Delay == nil && !partialMode {
				s.fanRoute(ctx, w, pred, rt, op)
				return
			}
			defer func() { op.Waited += rt.held }()
			step = func(lo, hi int) bool { return w.route(ctx, s, op, lo, hi, rt) }
		case src != nil:
			batch = Batch{Src: src, Sel: getSel()}
			step = func(lo, hi int) bool { return w.refs(s, op, lo, hi, &batch, emit) }
		default:
			batch = GetBatch()
		}
		// The fault injector and the retry driver derive from the scan's
		// name, so (plan, seed) reproduces the same failure sequence.
		m := sourceModel{ctx: ctx, s: s, partial: partialMode}
		if s.Delay != nil {
			m.d = *s.Delay
		}
		if m.d.Fault.Active() {
			m.inj = m.d.Fault.Injector("scan:" + s.Name)
			m.ret = newRetrier(ctx, op, s.Site, "scan:"+s.Name)
		}
		if m.run(step, rt, &batch, emit) {
			PutBatch(batch) // what run handed on last left it empty
		}
	})
	return out
}

// fanRoute is the read loop of a routing scan over an unmodeled source:
// morsel-style, the scan's worker w and up to GOMAXPROCS−1 more, never more
// than there are chunks, claim chunks from one counter, each with its own
// scratch and route (inputRoute.fork). It returns once the last worker has
// handed on what it carries, so the route's done fires once, after all of
// them.
func (s *Scan) fanRoute(ctx *Context, w *scanWorker, pred expr.Expr, rt *inputRoute, op *stats.OpStats) {
	var next atomic.Int64
	var wg sync.WaitGroup
	n := max(1, min(runtime.GOMAXPROCS(0), (len(s.Rows)+scanChunkRows-1)/scanChunkRows))
	routes := make([]*inputRoute, n)
	run := func(i int, w *scanWorker) {
		defer wg.Done()
		r := rt.fork()
		routes[i] = r
		for {
			lo := int(next.Add(1)-1) * scanChunkRows
			if lo >= len(s.Rows) {
				r.flush(ctx, 0)
				return
			}
			if ctx.Err() != nil || !w.route(ctx, s, op, lo, min(lo+scanChunkRows, len(s.Rows)), r) {
				return
			}
		}
	}
	wg.Add(n)
	for i := range n - 1 {
		ctx.Spawn(func() {
			w := s.newWorker(pred)
			defer func() { op.RunProbes.Add(int64(w.sc.runs)) }()
			run(i+1, w)
		})
	}
	run(0, w)
	wg.Wait()
	var held time.Duration // the workers hold for one sibling: the longest
	for _, r := range routes {
		held = max(held, r.held)
	}
	op.Waited += held
}

// sourceModel is a scan's source for one run: the §VI-B delay model, zero
// for an undelayed scan, which never waits. The scan reads scanChunkRows rows
// at a time, cut at the next EveryN or BurstEveryN boundary; per read it
// checks for cancellation and an abandoned sibling stream (partial mode),
// draws one injected fault, runs the kernel and takes the pause a boundary
// calls for. Before any wait it hands on what it carries, so rows read
// before a pause reach the consumer before it.
type sourceModel struct {
	ctx     *Context
	s       *Scan
	d       DelayConfig            // *s.Delay, or zero
	inj     *network.FaultInjector // with ret, only under an active fault profile
	ret     *retrier
	partial bool // PartialOnSourceError over a named table
}

// run runs step over every read of the table; false when the scan must stop.
// Before each wait, and at the end, it hands on rt's scatters, or the partial
// *batch to emit — a row-id batch (over a RootSource) refilled as one.
func (m *sourceModel) run(step func(lo, hi int) bool, rt *inputRoute, batch *Batch, emit func(Batch) bool) bool {
	handOn := func() bool {
		if rt != nil {
			return rt.flush(m.ctx, 0)
		}
		if batch.Len() == 0 {
			return true
		}
		src := batch.Src
		if !emit(*batch) {
			return false
		}
		if src != nil {
			*batch = Batch{Src: src, Sel: getSel()}
		} else {
			*batch = GetBatch()
		}
		return true
	}
	if len(m.s.Rows) > 0 && !m.wait(m.d.Initial, handOn) {
		return false
	}
	for lo, end := 0, 0; lo < len(m.s.Rows); lo = end {
		// A pruned read sends nothing, so cancellation — and a sibling
		// stream of the same table having been abandoned, which ends the
		// input early but whole — is checked here, not only at the send.
		if m.ctx.Err() != nil || m.partial && m.ctx.SourceAbandoned(m.s.Table) {
			PutBatch(*batch)
			return false
		}
		end = min(lo+scanChunkRows, len(m.s.Rows))
		for _, every := range [...]int{m.d.EveryN, m.d.BurstEveryN} {
			if every > 0 {
				end = min(end, (lo/every+1)*every)
			}
		}
		if m.ret != nil && !m.draw(handOn) || !step(lo, end) {
			return false
		}
		// EveryN's pause wins where both boundaries fall.
		pause, at := m.d.Pause, m.d.EveryN > 0 && end%m.d.EveryN == 0
		if !at {
			pause, at = m.d.BurstPause, m.d.BurstEveryN > 0 && end%m.d.BurstEveryN == 0
		}
		if at && !m.wait(pause, handOn) {
			return false
		}
	}
	return handOn()
}

// draw is one read's injected fault decision under the recovery policy; on
// exhaustion the earlier reads' rows go out, then the source fails.
func (m *sourceModel) draw(handOn func() bool) bool {
	err := m.ret.do(func(stop <-chan struct{}) error {
		switch k := m.inj.Next(); k {
		case network.FaultNone:
			return nil
		case network.FaultStall:
			<-stop
			return network.ErrCancelled // a timeout converts this to ErrAttemptTimeout
		default:
			return &network.FaultError{Kind: k}
		}
	})
	if err != nil && !errors.Is(err, network.ErrCancelled) {
		handOn()
		m.ctx.FailSource(&SourceError{Table: m.s.Table, Site: m.s.Site, Attempts: m.ret.attempts, Cause: err})
	}
	return err == nil
}

// wait hands on what the scan carries, then sleeps d > 0; false when the
// query was cancelled first. A zero wait does nothing.
func (m *sourceModel) wait(d time.Duration, handOn func() bool) bool {
	if d <= 0 {
		return true
	}
	if !handOn() {
		return false
	}
	select {
	case <-time.After(d):
		return true
	case <-m.ctx.Cancelled():
		return false
	}
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
// itself, at the source: a local one, modeled or not. A remote scan is left
// alone — the Ship above it charges the modeled link per batch, and
// compacting survivors would change the message (and fault-draw) sequence.
func (f *Filter) sourceScan() *Scan {
	if sc, ok := f.Child.(*Scan); ok && sc.Site == 0 {
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
			if !send(ctx, out, b, &op.Out) {
				return
			}
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
// A delayed scan keeps the Project: the session flushes row-id frames only
// when full, so a delayed row-id stream would sit in its writer.
func (p *Project) rootScan() (*Scan, expr.Expr, *RootSource) {
	sc, pred := scanUnder(p.Child)
	if sc == nil || sc.modeled() || sc.Site != 0 || sc.Point != nil || sc.Vecs == nil || len(sc.Rows) > math.MaxInt32 {
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
			col = resize(col, len(b.Tuples))
			for j, c := range compiled {
				c.EvalBatch(b.Tuples, sel, col)
				for k, lane := range sel {
					rows[k][j] = col[lane]
				}
			}
			res := GetBatch()
			res.Tuples = append(res.Tuples, rows...)
			PutBatch(b)
			if !send(ctx, out, res, &op.Out) {
				return
			}
		}
	})
	return out
}
