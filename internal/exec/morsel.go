package exec

// This file is the morsel-driven execution path (Context.Scheduler =
// SchedulerMorsel): instead of one goroutine per operator per partition
// glued by channels, the plan is compiled into a chain of push-style
// state machines (mChain) driven by a work-stealing worker pool
// (internal/sched). One exec.Batch is one morsel.
//
//   - Scans range-split their table into scanChunkRows chunks, each a
//     pool task running the same source-side selection kernel as the chan
//     scan (scanWorker.chunk), so a single big scan uses every worker (the
//     chan engine's one-goroutine-per-scan bottleneck disappears). Delayed,
//     paced, or fault-injected scans stay sequential — their pacing and
//     deterministic fault-draw sequence depend on flush order — and run
//     on a dedicated goroutine with a pseudo worker id, so a sleeping
//     source never occupies a pool worker.
//   - Filter / Project / Ship fuse into the producing task: a scan chunk
//     pushes its batches straight through them with no handoff.
//   - The partitioned stateful operators (join, aggregation, distinct)
//     keep the chan engine's radix layout, but the per-partition scatter
//     channels become actor inboxes: a producing task enqueues a scatter
//     and, if the partition has no active drain, schedules one as a pool
//     task. The CAS claim serializes each partition (preserving the
//     exactly-once ticket argument and the one-writer-per-slot OnStore
//     contract) while letting any worker run the drain.
//   - Pipeline-breaker barriers (input completion, PointDone, the §VI-A
//     short-circuit, partial-result teardown) are task-count barriers:
//     pending = 1 router hold + in-flight scatters, and completion runs
//     exactly once when the count reaches zero after the upstream done
//     cascade released the hold — the same protocol the chan join uses,
//     generalized to every partitioned operator.
//
// The done cascade fires on normal completion and on partial-mode source
// abandonment (matching the chan engine, where a truncated-but-uncancelled
// input channel closing counts as completed input), and never under
// cancellation: a push returns false only when the query is cancelled, so
// "push returned false implies ctx.Err() != nil" holds everywhere and no
// barrier can publish partial AIP state as complete.
//
// Plans containing operators this compiler does not know, or whose
// worker-id space would exceed MaxPartitions, transparently fall back to
// the chan engine.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/types"
)

// mChain is one compiled operator stage. push delivers one batch from
// pool worker (or pseudo-worker) w, consuming it; it returns false only
// when the query has been cancelled. done signals that one upstream input
// has delivered its last batch; every push of that input happens-before
// its done. Implementations must tolerate concurrent push calls from
// different worker ids.
type mChain interface {
	push(w int, b Batch) bool
	done(w int)
}

// morselRun is the shared state of one morsel-scheduled execution.
type morselRun struct {
	ctx  *Context
	pool *sched.Pool
	nw   int // worker-id space: pool workers + sequential-source pseudo ids
	out  chan Batch

	rootDone chan struct{}
	rootOnce sync.Once

	seqWg   sync.WaitGroup
	nextSeq int // next pseudo-worker id (starts at the pool size)

	starts []func() // per-scan launch closures, run after the pool starts
}

// morselSurvey is the first compile pass: operator support check, scan
// classification, and total base-table cardinality for the worker clamp.
type morselSurvey struct {
	seq  int   // sequential sources (delayed / paced / fault-injected)
	rows int64 // total base-table rows
}

func surveyMorsel(op Op, sv *morselSurvey) bool {
	switch o := op.(type) {
	case *Scan:
		if o.sequential() {
			sv.seq++
		}
		sv.rows += int64(len(o.Rows))
		return true
	case *Filter:
		return surveyMorsel(o.Child, sv)
	case *Project:
		return surveyMorsel(o.Child, sv)
	case *Ship:
		return surveyMorsel(o.Child, sv)
	case *HashJoin:
		return surveyMorsel(o.Left, sv) && surveyMorsel(o.Right, sv)
	case *HashAgg:
		return surveyMorsel(o.Child, sv)
	case *Distinct:
		return surveyMorsel(o.Child, sv)
	default:
		return false
	}
}

// startMorsel compiles and launches root on the work-stealing pool. It
// reports false when the plan cannot run on the morsel path (unknown
// operator, worker-id space overflow); the caller falls back to the chan
// engine.
//
// The pool size is adaptive: Parallelism (GOMAXPROCS by default), clamped
// by the plan's total base-table cardinality exactly like the partition
// fan-out, then divided by the engine's concurrent-query load (Context.
// Load) so a saturated server runs more queries with fewer workers each
// instead of oversubscribing goroutines.
func startMorsel(ctx *Context, root Op) (<-chan Batch, bool) {
	var sv morselSurvey
	if !surveyMorsel(root, &sv) {
		return nil, false
	}
	w := ctx.partitions()
	w = clampPartitions(w, float64(sv.rows))
	if ctx.Load != nil {
		if l := ctx.Load(); l > 1 {
			w /= l
			if w < 1 {
				w = 1
			}
		}
	}
	if w+sv.seq > MaxPartitions {
		// Worker ids double as OnStore slots, which are capped at
		// MaxPartitions; an absurdly wide plan keeps the chan engine.
		return nil, false
	}
	r := &morselRun{
		ctx:      ctx,
		pool:     sched.New(w),
		out:      make(chan Batch, ctx.pipeDepth()),
		rootDone: make(chan struct{}),
	}
	r.nextSeq = r.pool.Workers()
	r.nw = r.pool.Workers() + sv.seq
	// Contain task panics to this query: the pool worker survives, the
	// query fails with a typed *PanicError, and the supervisor below tears
	// the pool down through the normal cancellation path.
	r.pool.OnPanic = func(v any, stack []byte) {
		ctx.CancelCause(&PanicError{Val: v, Stack: stack})
	}
	r.build(root, &mSink{run: r})
	r.pool.Start(ctx.Spawn)
	for _, f := range r.starts {
		f()
	}
	// Supervisor: tear the pool down once the root's completion barrier
	// fires or the query is cancelled. Workers blocked on the root edge
	// always select on the cancel channel, so Wait terminates; the output
	// channel closes only after every producer has provably exited.
	ctx.Spawn(func() {
		select {
		case <-r.rootDone:
		case <-ctx.Cancelled():
		}
		r.pool.Stop()
		r.pool.Wait()
		r.seqWg.Wait()
		st := r.pool.Stats()
		ctx.Stats.RecordSched(st.Workers, st.Morsels, st.Steals, st.Parks, st.Unparks, st.Busy)
		close(r.out)
	})
	return r.out, true
}

// build compiles op and its inputs onto the chain ending at down.
// surveyMorsel vetted the tree, so the type switch is exhaustive.
func (r *morselRun) build(op Op, down mChain) {
	switch o := op.(type) {
	case *Scan:
		r.buildScan(o, nil, down)
	case *Filter:
		// A scan that selects at the source evaluates the predicate itself.
		if sc := o.sourceScan(); sc != nil {
			r.buildScan(sc, o.Pred, down)
		} else {
			r.build(o.Child, newMFilter(r, o, down))
		}
	case *Project:
		r.build(o.Child, newMProject(r, o, down))
	case *Ship:
		r.build(o.Child, newMShip(r, o, down))
	case *HashJoin:
		m := newMJoin(r, o, down)
		r.build(o.Left, &mJoinSide{j: m, side: 0})
		r.build(o.Right, &mJoinSide{j: m, side: 1})
	case *HashAgg:
		r.build(o.Child, newMAgg(r, o, down))
	case *Distinct:
		r.build(o.Child, newMDistinct(r, o, down))
	default:
		panic("exec: operator escaped the morsel survey")
	}
}

// mSink is the chain terminator: batches go to the run's output channel,
// and the root done cascade fires the completion barrier.
type mSink struct{ run *morselRun }

func (s *mSink) push(w int, b Batch) bool { return send(s.run.ctx, s.run.out, b) }

func (s *mSink) done(w int) {
	s.run.rootOnce.Do(func() { close(s.run.rootDone) })
}

// mInbox is a partition's actor inbox: producers enqueue scatters from
// any worker, and a CAS claim guarantees at most one drain owns the
// partition state at a time. The drain releases the claim only after
// re-checking the queue, so an enqueue that lost the CAS race is always
// observed by the active drain or re-claims itself.
type mInbox struct {
	running atomic.Int32
	mu      sync.Mutex
	queue   []*scatter
}

// put enqueues sb; true means the caller won the claim and must schedule
// a drain.
func (ib *mInbox) put(sb *scatter) bool {
	ib.mu.Lock()
	ib.queue = append(ib.queue, sb)
	ib.mu.Unlock()
	return ib.running.CompareAndSwap(0, 1)
}

// drainLoop runs process over queued scatters until the inbox is empty,
// then releases the claim. process returns false to abandon the drain
// (cancellation); the claim is then kept forever, parking the partition.
func (ib *mInbox) drainLoop(process func(*scatter) bool) {
	for {
		ib.mu.Lock()
		q := ib.queue
		ib.queue = nil
		ib.mu.Unlock()
		if len(q) == 0 {
			ib.running.Store(0)
			ib.mu.Lock()
			n := len(ib.queue)
			ib.mu.Unlock()
			if n == 0 || !ib.running.CompareAndSwap(0, 1) {
				return
			}
			continue
		}
		for _, sb := range q {
			if !process(sb) {
				return
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scans

// mScanRange is a range-split parallel scan of a plain (unpaced,
// fault-free) table: each scanChunkRows chunk is one pool task, and the
// last chunk to finish fires the done cascade.
type mScanRange struct {
	run       *morselRun
	s         *Scan
	op        *stats.OpStats
	down      mChain
	remaining atomic.Int64
	partial   bool // PartialOnSourceError: stop when the table is abandoned

	typed []*expr.VecCmp // the fused Filter's predicate, split once
	rest  expr.Expr
	ws    []*scanWorker // per worker id, created on first use
}

// buildScan compiles a scan; pred is the predicate of a Filter fused into
// it (nil for none, and always nil for sequential scans).
func (r *morselRun) buildScan(s *Scan, pred expr.Expr, down mChain) {
	op := r.ctx.Stats.NewOp("scan:" + s.Name)
	if s.sequential() {
		wid := r.nextSeq
		r.nextSeq++
		r.starts = append(r.starts, func() {
			r.seqWg.Add(1)
			// The source gets a dedicated goroutine — sleeping out its delay
			// or backoff never occupies a pool worker — under pseudo-worker
			// id wid. Every uncancelled exit (exhausted input, partial-mode
			// abandonment or source failure) completes the input.
			r.ctx.Spawn(func() {
				defer r.seqWg.Done()
				s.runSequential(r.ctx, op, func(b Batch) bool { return down.push(wid, b) })
				if r.ctx.Err() == nil {
					down.done(wid)
				}
			})
		})
		return
	}
	node := &mScanRange{
		run: r, s: s, op: op, down: down,
		partial: r.ctx.Recovery.Mode == PartialOnSourceError && s.Table != "",
		ws:      make([]*scanWorker, r.nw),
	}
	node.typed, node.rest = s.splitScanPred(pred)
	n := len(s.Rows)
	chunks := (n + scanChunkRows - 1) / scanChunkRows
	if chunks < 1 {
		chunks = 1 // empty table: one task, just to run the done cascade
	}
	node.remaining.Store(int64(chunks))
	r.starts = append(r.starts, func() {
		for c := 0; c < chunks; c++ {
			lo := c * scanChunkRows
			hi := lo + scanChunkRows
			if hi > n {
				hi = n
			}
			r.pool.Submit(func(w int) { node.runChunk(w, lo, hi) })
		}
	})
}

func (n *mScanRange) runChunk(w, lo, hi int) {
	ctx := n.run.ctx
	if ctx.Err() == nil && !(n.partial && ctx.SourceAbandoned(n.s.Table)) {
		if n.ws[w] == nil {
			n.ws[w] = n.s.newWorker(n.typed, n.rest)
		}
		emit := func(b Batch) bool {
			nn := int64(len(b.Tuples))
			if !n.down.push(w, b) {
				return false
			}
			n.op.Out.Add(nn)
			return true
		}
		// Chunks run on whichever worker steals them, so the remainder is
		// flushed per chunk rather than carried.
		batch := GetBatch()
		if n.ws[w].chunk(n.s, n.op, lo, hi, &batch, emit) {
			if len(batch.Tuples) == 0 {
				PutBatch(batch)
			} else {
				emit(batch)
			}
		}
	}
	// The last chunk fires the cascade — including after a partial-mode
	// abandonment (truncated input still completes, as in the chan engine)
	// but never under cancellation.
	if n.remaining.Add(-1) == 0 && ctx.Err() == nil {
		n.down.done(w)
	}
}

// ---------------------------------------------------------------------------
// Fused stateless stages

// mFilter narrows each batch's selection vector in place (the chan
// Filter's body, fused into the producing task). Compiled predicates
// carry scratch, so one kernel per worker id.
type mFilter struct {
	down  mChain
	op    *stats.OpStats
	preds []*expr.Compiled
}

func newMFilter(r *morselRun, f *Filter, down mChain) *mFilter {
	n := &mFilter{down: down, op: r.ctx.Stats.NewOp("filter:" + f.Name)}
	n.preds = make([]*expr.Compiled, r.nw)
	for i := range n.preds {
		n.preds[i] = expr.Compile(f.Pred)
	}
	return n
}

func (f *mFilter) push(w int, b Batch) bool {
	f.op.In.Add(int64(b.Len()))
	pred := f.preds[w]
	var sel []int32
	if b.Sel != nil {
		sel = pred.EvalBool(b.Tuples, b.Sel, b.Sel)
	} else {
		sel = pred.EvalBool(b.Tuples, identSel(len(b.Tuples)), getSel())
	}
	b.Sel = sel
	if len(sel) == 0 {
		PutBatch(b)
		return true
	}
	n := int64(len(sel))
	if !f.down.push(w, b) {
		return false
	}
	f.op.Out.Add(n)
	return true
}

func (f *mFilter) done(w int) { f.down.done(w) }

// mProject evaluates output expressions batch-at-a-time into arena rows
// (the chan Project's body), with per-worker kernels and scratch.
type mProject struct {
	down  mChain
	op    *stats.OpStats
	width int
	ws    []mProjectWorker
}

type mProjectWorker struct {
	compiled []*expr.Compiled
	arena    rowArena
	col      []types.Value
	rows     []types.Tuple
}

func newMProject(r *morselRun, p *Project, down mChain) *mProject {
	n := &mProject{down: down, op: r.ctx.Stats.NewOp("project:" + p.Name), width: len(p.Exprs)}
	n.ws = make([]mProjectWorker, r.nw)
	for i := range n.ws {
		c := make([]*expr.Compiled, len(p.Exprs))
		for j, e := range p.Exprs {
			c[j] = expr.Compile(e)
		}
		n.ws[i].compiled = c
	}
	return n
}

func (p *mProject) push(w int, b Batch) bool {
	ws := &p.ws[w]
	sel := b.Live()
	n := len(sel)
	p.op.In.Add(int64(n))
	if n == 0 {
		PutBatch(b)
		return true
	}
	ws.rows = ws.rows[:0]
	for k := 0; k < n; k++ {
		ws.rows = append(ws.rows, ws.arena.alloc(p.width))
	}
	ws.col = growVals(ws.col, len(b.Tuples))
	for j, c := range ws.compiled {
		c.EvalBatch(b.Tuples, sel, ws.col)
		for k, lane := range sel {
			ws.rows[k][j] = ws.col[lane]
		}
	}
	res := GetBatch()
	res.Tuples = append(res.Tuples, ws.rows...)
	PutBatch(b)
	if !p.down.push(w, res) {
		return false
	}
	p.op.Out.Add(int64(n))
	return true
}

func (p *mProject) done(w int) { p.down.done(w) }

// mShip is the chan Ship fused into the producing task. A mutex
// serializes pushes: the simulated link models one wire, the retrier is
// single-stream, and serializing keeps the per-link fault-draw sequence
// well-defined. Under partial-mode source failure the stage keeps
// accepting (and dropping) input — the chan engine's drain — until the
// upstream done cascade completes the stream.
type mShip struct {
	run  *morselRun
	s    *Ship
	down mChain
	op   *stats.OpStats

	mu        sync.Mutex
	ret       *retrier
	sc        ProbeScratch
	abandoned bool
}

func newMShip(r *morselRun, s *Ship, down mChain) *mShip {
	n := &mShip{run: r, s: s, down: down, op: r.ctx.Stats.NewOp("ship:" + s.Name)}
	if s.Point != nil {
		s.Point.Op = n.op
	}
	if s.Link != nil && s.Link.Faults.Active() {
		n.ret = newRetrier(r.ctx, n.op, s.Site, "ship:"+s.Name)
	}
	return n
}

func (m *mShip) push(w int, b Batch) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ctx := m.run.ctx
	if m.abandoned {
		PutBatch(b)
		return true
	}
	nIn := int64(b.Len())
	nbytes := 0
	var kept []int32
	if b.Sel != nil {
		kept = b.Sel[:0]
	} else {
		kept = getSel()
	}
	if m.s.Point != nil && m.s.Point.Bank.Len() > 0 {
		kept = m.s.Point.Bank.ProbeBatch(b.Tuples, nil, b.Live(), kept, &m.sc)
	} else {
		kept = append(kept, b.Live()...)
	}
	for _, l := range kept {
		nbytes += b.Tuples[l].MemSize()
	}
	m.op.In.Add(nIn)
	m.op.Pruned.Add(nIn - int64(len(kept)))
	if m.s.Point != nil {
		m.s.Point.received.Add(nIn)
	}
	b.Sel = kept
	if len(kept) > 0 && m.s.Link != nil {
		var err error
		if m.ret != nil {
			err = m.ret.do(func(stop <-chan struct{}) error {
				aerr := m.s.Link.Transfer(nbytes, stop)
				var fe *network.FaultError
				if errors.As(aerr, &fe) && fe.Sent > 0 {
					m.op.WastedBytes.Add(int64(fe.Sent))
				}
				return aerr
			})
		} else {
			err = m.s.Link.Transfer(nbytes, ctx.Cancelled())
		}
		if err != nil {
			if errors.Is(err, network.ErrCancelled) {
				return false
			}
			attempts := 1
			if m.ret != nil {
				attempts = m.ret.attempts
			}
			ctx.FailSource(&SourceError{
				Table: m.s.Table, Site: m.s.Site,
				Attempts: attempts, Cause: err,
			})
			PutBatch(b)
			if ctx.Recovery.Mode != PartialOnSourceError {
				return false // query is being cancelled with the SourceError
			}
			m.abandoned = true
			return true
		}
		ctx.Stats.NetworkBytes.Add(int64(nbytes))
	}
	if len(kept) == 0 {
		PutBatch(b)
		return true
	}
	n := int64(len(kept))
	if !m.down.push(w, b) {
		return false
	}
	m.op.Out.Add(n)
	return true
}

func (m *mShip) done(w int) {
	// Mirrors the chan Ship: the point completes even after a partial-mode
	// abandonment (the stream is done; its state was already marked
	// incomplete by FailSource).
	if m.s.Point != nil {
		m.s.Point.done.Store(true)
		m.run.ctx.pointDone(m.s.Point)
	}
	m.down.done(w)
}

// ---------------------------------------------------------------------------
// Hash join

// The morsel join reuses the chan engine's joinInput for its side-level
// barrier state: pending is 1 (the input hold, released by the upstream done
// cascade) plus in-flight scatters, reaching zero exactly once after the
// input's last probe.

// mJoinPart is one radix partition: the shared joinCore (tables, ticket
// counter, spill state) and the drain-side scratch, all owned by whichever
// task holds the inbox claim.
type mJoinPart struct {
	inbox mInbox
	joinCore

	matches []types.Tuple
	arena   rowArena
	resC    *expr.Compiled
	ids     []int32 // batch kernel scratch: key ids per scatter lane
	added   []bool
}

// mJoinRoute is one worker id's routing scratch. A worker runs one push
// at a time, and every push flushes its buffered scatters before
// returning, so the buffers never mix sides.
type mJoinRoute struct {
	sc   ProbeScratch // batch key hashing + AIP probing, hash-once
	keep []int32      // surviving selection when filters are attached
	bufs []*scatter
}

type mJoin struct {
	run   *morselRun
	down  mChain
	P     int
	shift uint

	parts  []*mJoinPart
	inputs [2]*joinInput
	route  []mJoinRoute

	sidesDone atomic.Int32
}

func newMJoin(r *morselRun, j *HashJoin, down mChain) *mJoin {
	P := r.ctx.partitions()
	P = clampPartitions(P, pointEstRows(j.LPoint)+pointEstRows(j.RPoint))
	r.ctx.addMemParts(P)
	lop := r.ctx.Stats.NewOp("join:" + j.Name + ".left")
	rop := r.ctx.Stats.NewOp("join:" + j.Name + ".right")
	lop.SetPartitions(P)
	rop.SetPartitions(P)
	m := &mJoin{run: r, down: down, P: P, shift: partShift(P)}
	m.inputs[0] = &joinInput{side: 0, keys: j.LKeys, point: j.LPoint, op: lop}
	m.inputs[1] = &joinInput{side: 1, keys: j.RKeys, point: j.RPoint, op: rop}
	m.inputs[0].pending.Store(1)
	m.inputs[1].pending.Store(1)
	for _, in := range m.inputs {
		if in.point != nil {
			in.point.Op = in.op
		}
	}
	m.parts = make([]*mJoinPart, P)
	for p := range m.parts {
		pt := &mJoinPart{resC: expr.Compile(j.Residual)}
		for s, in := range m.inputs {
			if in.point != nil {
				pt.tables[s].reserve(int(in.point.EstRows)/P, joinKeyHint(in.point, in.keys, P))
			}
		}
		m.parts[p] = pt
	}
	m.route = make([]mJoinRoute, r.nw)
	for i := range m.route {
		m.route[i].bufs = make([]*scatter, P)
	}
	return m
}

// mJoinSide binds one input side to the two-input join node.
type mJoinSide struct {
	j    *mJoin
	side int
}

func (s *mJoinSide) push(w int, b Batch) bool { return s.j.pushSide(w, s.side, b) }
func (s *mJoinSide) done(w int)               { s.j.sideDone(w, s.side) }

// pushSide is the router phase, run inline in the producing task: AIP
// probe, hash-once key encoding, scatter buffering, and per-partition
// enqueue. Each enqueued scatter counts against the side's pending
// barrier before the drain is scheduled.
func (m *mJoin) pushSide(w, side int, b Batch) bool {
	in := m.inputs[side]
	rs := &m.route[w]
	sel := b.Live()
	nIn := int64(len(sel))
	// Probe the AIP filters batch-at-a-time; ProbeBatch fills the scratch's
	// hash/key arrays for every live lane either way, so routing below
	// reuses the hash-once work.
	kept := sel
	if in.point != nil && in.point.Bank.Len() > 0 {
		kept = in.point.Bank.ProbeBatch(b.Tuples, in.keys, sel, rs.keep[:0], &rs.sc)
		rs.keep = kept
	} else {
		rs.sc.compute(b.Tuples, in.keys, sel)
	}
	for _, l := range kept {
		t := b.Tuples[l]
		h := rs.sc.hashes[l]
		p := int(h >> m.shift)
		buf := rs.bufs[p]
		if buf == nil {
			buf = getScatter(side)
			rs.bufs[p] = buf
		}
		buf.add(t, h, rs.sc.key(l))
		// The chan router owns working-set slot 0; here each worker id is
		// its own serialized slot (a worker runs one task at a time).
		if in.point != nil && in.point.OnStore != nil {
			in.point.OnStore(w, t)
		}
	}
	in.op.In.Add(nIn)
	in.op.Pruned.Add(nIn - int64(len(kept)))
	if in.point != nil {
		in.point.received.Add(nIn)
	}
	PutBatch(b)
	for p, sb := range rs.bufs {
		if sb == nil {
			continue
		}
		rs.bufs[p] = nil
		in.pending.Add(1)
		if m.parts[p].inbox.put(sb) {
			p := p
			m.run.pool.SubmitFrom(w, func(dw int) {
				m.parts[p].inbox.drainLoop(func(sb *scatter) bool {
					return m.processScatter(dw, p, sb)
				})
			})
		}
	}
	return m.run.ctx.Err() == nil
}

// processScatter is the chan join worker's body for one scatter: ticketed
// insert (unless the other side completed — the §VI-A short-circuit),
// probe, arena-backed emission through the residual, stats, release.
func (m *mJoin) processScatter(dw, p int, sb *scatter) bool {
	pt := m.parts[p]
	own, other := m.inputs[sb.side], m.inputs[1-sb.side]
	ownT, otherT := &pt.tables[sb.side], &pt.tables[1-sb.side]
	n := len(sb.tuples)
	base := pt.ticket
	pt.ticket += uint64(n)
	pt.ids = growI32(pt.ids, n)

	ctx := m.run.ctx
	var stored, storedBytes int64
	preBytes := ownT.memBytes()
	preTup := ownT.tupBytes
	if !other.done.Load() {
		if cap(pt.added) < n {
			pt.added = make([]bool, n)
		}
		ownT.insertBatch(sb, base, pt.ids, pt.added[:n])
		stored = int64(n)
		storedBytes = ownT.tupBytes - preTup
	} else if pt.run != nil {
		// Spilled partition: post-short-circuit arrivals may still match
		// evicted other-side entries, so they go to the run (current epoch)
		// instead of being dropped.
		if err := pt.spillArrivals(sb, base); err != nil {
			ctx.CancelCause(err)
			return false
		}
	} else if own.point != nil {
		own.point.stateIncomplete.Store(true)
	}
	if delta := ownT.memBytes() - preBytes; delta != 0 {
		ctx.account(delta)
		own.op.StateBytes.Add(delta)
		pt.bytes += delta
	}
	outBatch := GetBatch()
	emit := func() bool {
		if len(outBatch.Tuples) == 0 {
			return true
		}
		if pt.resC != nil {
			outBatch.Sel = pt.resC.EvalBool(outBatch.Tuples, identSel(len(outBatch.Tuples)), getSel())
			if len(outBatch.Sel) == 0 {
				PutBatch(outBatch)
				outBatch = GetBatch()
				return true
			}
		}
		nn := int64(outBatch.Len())
		if !m.down.push(dw, outBatch) {
			outBatch = Batch{}
			return false
		}
		own.op.Out.Add(nn)
		outBatch = GetBatch()
		return true
	}
	ownIsLeft := sb.side == 0
	ok := true
	// Resolve every probe key's id in one prefetching pass over the other
	// side's table, then walk the match chains per lane.
	otherT.idx.LookupBatch(sb.hashes, sb.keys, sb.offs, pt.ids)
scan:
	for i, t := range sb.tuples {
		pt.matches = otherT.probeID(pt.ids[i], base+uint64(i)+1, pt.matches[:0])
		for _, mt := range pt.matches {
			var row types.Tuple
			if ownIsLeft {
				row = pt.arena.concat(t, mt)
			} else {
				row = pt.arena.concat(mt, t)
			}
			outBatch.Tuples = append(outBatch.Tuples, row)
			if len(outBatch.Tuples) == BatchSize && !emit() {
				ok = false
				break scan
			}
		}
	}
	if ok {
		ok = emit()
	}
	if !ok {
		// Cancelled mid-emission: abandon without releasing, exactly like
		// the chan worker returning — the barrier never fires and no
		// partial state is published.
		return false
	}
	PutBatch(outBatch)

	// Pressure check runs after the probe: evicting first would wipe the
	// co-resident matches this scatter is entitled to emit (the merge skips
	// same-epoch pairs, so they would be lost for good).
	if ctx.memPressure(pt.bytes, m.P) {
		ops := [2]*stats.OpStats{m.inputs[0].op, m.inputs[1].op}
		if err := pt.evict(ctx, ops, [2]*Point{m.inputs[0].point, m.inputs[1].point}); err != nil {
			ctx.CancelCause(err)
			return false
		}
	}

	own.op.StateRows.Add(stored)
	pp := own.op.Part(p)
	pp.Rows.Add(stored)
	pp.Bytes.Add(storedBytes)
	if own.point != nil {
		own.point.stored.Add(stored)
	}
	putScatter(sb)
	m.release(dw, own)
	return true
}

// release drops one pending reference; the barrier fires exactly once,
// after the input's last probe.
func (m *mJoin) release(w int, in *joinInput) {
	if in.pending.Add(-1) == 0 && in.routed.Load() {
		m.finish(w, in)
	}
}

// sideDone is the upstream done cascade arriving at one input: it marks
// the input fully routed and releases the hold.
func (m *mJoin) sideDone(w, side int) {
	if m.run.ctx.Err() != nil {
		return
	}
	in := m.inputs[side]
	in.routed.Store(true)
	m.release(w, in)
}

// finish completes one input: publish the immutable per-partition state
// to the AIP point, enable the other side's short-circuit, and — once
// both inputs are done, after which nothing can emit — cascade done
// (via the spill merge task when any partition spilled).
func (m *mJoin) finish(w int, in *joinInput) {
	in.done.Store(true)
	if in.point != nil {
		side := in.side
		parts := m.parts
		in.point.setStateIter(func(emit func(types.Tuple) bool) {
			for _, pt := range parts {
				for i := range pt.tables[side].entries {
					if !emit(pt.tables[side].tuple(i)) {
						return
					}
				}
			}
		})
		in.point.done.Store(true)
		m.run.ctx.pointDone(in.point)
	}
	if m.sidesDone.Add(1) == 2 && m.run.ctx.Err() == nil {
		spilled := false
		for _, pt := range m.parts {
			if pt.run != nil {
				spilled = true
				break
			}
		}
		if !spilled {
			m.down.done(w)
			return
		}
		// One sequential merge task drains every spilled partition's run and
		// then cascades done; merging one partition at a time keeps a single
		// merge table inside the merge share. All drains finished (both
		// pending barriers hit zero), so the partitions' resC are free.
		m.run.pool.SubmitFrom(w, func(dw int) { m.mergeSpilled(dw) })
	}
}

// mergeSpilled is the morsel engine's spill-drain task: the chan closer's
// merge loop as one pool task, emitting through the downstream chain.
func (m *mJoin) mergeSpilled(dw int) {
	ctx := m.run.ctx
	ops := [2]*stats.OpStats{m.inputs[0].op, m.inputs[1].op}
	for _, pt := range m.parts {
		if pt.run == nil {
			continue
		}
		if !pt.mergeSpill(ctx, ops, ops[0].Name, pt.resC, func(b Batch) bool {
			n := int64(b.Len())
			if !m.down.push(dw, b) {
				return false
			}
			ops[0].Out.Add(n)
			return true
		}) {
			return
		}
	}
	if ctx.Err() == nil {
		m.down.done(dw)
	}
}

// ---------------------------------------------------------------------------
// Hash aggregation

// mAggRoute is one worker id's routing scratch for the aggregation. The
// AIP probe runs through the batch kernel (group-by keys are computed
// values, so filters encode through the scratch's alt arrays); the
// routing key is the evaluated group tuple, hashed per row.
type mAggRoute struct {
	keyHasher types.Hasher
	sc        ProbeScratch
	compiled  []*expr.Compiled
	gcols2    [][]types.Value
	gvals     types.Tuple
	keep      []int32
	bufs      []*scatter
}

// mAggPart is one partition of the group state plus its fold scratch,
// owned by the inbox claimant. The embedded aggCore carries the group
// table and the bucket-discard spill state shared with the chan engine.
type mAggPart struct {
	inbox mInbox
	aggCore
	gvals   types.Tuple
	argC    []*expr.Compiled
	argCols [][]types.Value
	ids     []int32 // batch kernel scratch: key ids per scatter lane
	added   []bool
}

type mAgg struct {
	run   *morselRun
	h     *HashAgg
	down  mChain
	op    *stats.OpStats
	P     int
	shift uint
	gcols []int

	parts []*mAggPart
	route []mAggRoute

	pending       atomic.Int64
	routed        atomic.Bool
	remainingEmit atomic.Int64
}

func newMAgg(r *morselRun, h *HashAgg, down mChain) *mAgg {
	P := r.ctx.partitions()
	P = clampPartitions(P, pointEstRows(h.Point))
	r.ctx.addMemParts(P)
	op := r.ctx.Stats.NewOp("agg:" + h.Name)
	op.SetPartitions(P)
	if h.Point != nil {
		h.Point.Op = op
	}
	m := &mAgg{run: r, h: h, down: down, op: op, P: P, shift: partShift(P)}
	m.pending.Store(1)
	m.gcols = make([]int, len(h.GroupBy))
	for i := range m.gcols {
		m.gcols[i] = i
	}
	m.parts = make([]*mAggPart, P)
	for p := range m.parts {
		pt := &mAggPart{
			aggCore: aggCore{accs: accAllocator{width: len(h.Aggs)}},
			gvals:   make(types.Tuple, len(h.GroupBy)),
			argC:    make([]*expr.Compiled, len(h.Aggs)),
			argCols: make([][]types.Value, len(h.Aggs)),
		}
		for k := range h.Aggs {
			pt.argC[k] = expr.Compile(h.Aggs[k].Arg) // nil Arg compiles to nil
		}
		m.parts[p] = pt
	}
	m.route = make([]mAggRoute, r.nw)
	for i := range m.route {
		rt := &m.route[i]
		rt.compiled = make([]*expr.Compiled, len(h.GroupBy))
		for j, g := range h.GroupBy {
			rt.compiled[j] = expr.Compile(g)
		}
		rt.gcols2 = make([][]types.Value, len(h.GroupBy))
		rt.gvals = make(types.Tuple, len(h.GroupBy))
		rt.bufs = make([]*scatter, P)
	}
	return m
}

func (m *mAgg) push(w int, b Batch) bool {
	rt := &m.route[w]
	sel := b.Live()
	nIn := int64(len(sel))
	rt.keep = rt.keep[:0]
	if m.h.Point != nil && m.h.Point.Bank.Len() > 0 {
		rt.keep = m.h.Point.Bank.ProbeBatch(b.Tuples, nil, sel, rt.keep, &rt.sc)
	} else {
		rt.keep = append(rt.keep, sel...)
	}
	pruned := nIn - int64(len(rt.keep))
	for i, c := range rt.compiled {
		rt.gcols2[i] = growVals(rt.gcols2[i], len(b.Tuples))
		c.EvalBatch(b.Tuples, rt.keep, rt.gcols2[i])
	}
	for _, l := range rt.keep {
		for i := range rt.compiled {
			rt.gvals[i] = rt.gcols2[i][l]
		}
		kh, key := rt.keyHasher.KeyCols(rt.gvals, m.gcols)
		p := int(kh >> m.shift)
		buf := rt.bufs[p]
		if buf == nil {
			buf = getScatter(0)
			rt.bufs[p] = buf
		}
		buf.add(b.Tuples[l], kh, key)
	}
	m.op.In.Add(nIn)
	m.op.Pruned.Add(pruned)
	if m.h.Point != nil {
		m.h.Point.received.Add(nIn)
	}
	PutBatch(b)
	m.flushRoute(w, rt)
	return m.run.ctx.Err() == nil
}

func (m *mAgg) flushRoute(w int, rt *mAggRoute) {
	for p, sb := range rt.bufs {
		if sb == nil {
			continue
		}
		rt.bufs[p] = nil
		m.pending.Add(1)
		if m.parts[p].inbox.put(sb) {
			p := p
			m.run.pool.SubmitFrom(w, func(dw int) {
				m.parts[p].inbox.drainLoop(func(sb *scatter) bool {
					return m.fold(dw, p, sb)
				})
			})
		}
	}
}

// fold is the chan agg worker's body for one scatter: vectorized argument
// columns, KeyTable insert, group creation with OnStore, accumulator
// updates, stats, release.
func (m *mAgg) fold(dw, p int, sb *scatter) bool {
	pt := m.parts[p]
	ctx := m.run.ctx
	var newGroups, newBytes int64
	preBytes := pt.memBytes()
	n := len(sb.tuples)
	ident := identSel(n)
	for k, c := range pt.argC {
		if c == nil {
			continue
		}
		pt.argCols[k] = growVals(pt.argCols[k], n)
		c.EvalBatch(sb.tuples, ident, pt.argCols[k])
	}
	pt.ids = growI32(pt.ids, n)
	if cap(pt.added) < n {
		pt.added = make([]bool, n)
	}
	// Resolve every group key's id in one prefetching pass; InsertBatch
	// assigns dense ids in lane order, so pt.groups grows in lockstep.
	pt.idx.InsertBatch(sb.hashes, sb.keys, sb.offs, pt.ids, pt.added[:n])
	for i, t := range sb.tuples {
		id := pt.ids[i]
		if pt.added[i] {
			for k, g := range m.h.GroupBy {
				pt.gvals[k] = g.Eval(t)
			}
			pt.groups = append(pt.groups, groupState{groupVals: pt.gvals.Clone(), accs: pt.accs.alloc()})
			newGroups++
			newBytes += int64(pt.gvals.MemSize()) + int64(48*len(m.h.Aggs))
			// Partition index as the OnStore slot: the inbox claim
			// serializes it (one drain at a time owns the partition).
			if m.h.Point != nil && m.h.Point.OnStore != nil {
				m.h.Point.OnStore(p, pt.groups[id].groupVals)
			}
		}
		gs := &pt.groups[id]
		for k := range m.h.Aggs {
			var v types.Value
			if pt.argC[k] != nil {
				v = pt.argCols[k][i]
			}
			gs.accs[k].add(m.h.Aggs[k].Func, v)
		}
	}
	pt.groupBytes += newBytes
	// Delta-based accounting over the full footprint (key index + groups),
	// mirroring the chan worker.
	if delta := pt.memBytes() - preBytes; delta != 0 {
		ctx.account(delta)
		m.op.StateBytes.Add(delta)
		pt.bytes += delta
	}
	m.op.StateRows.Add(newGroups)
	pp := m.op.Part(p)
	pp.Rows.Add(newGroups)
	pp.Bytes.Add(newBytes)
	if m.h.Point != nil {
		m.h.Point.stored.Add(newGroups)
	}
	if ctx.memPressure(pt.bytes, m.P) {
		if err := pt.evict(ctx, m.op, m.h.Point, m.h.Aggs); err != nil {
			ctx.CancelCause(err)
			return false
		}
	}
	putScatter(sb)
	m.release(dw)
	return true
}

func (m *mAgg) release(w int) {
	if m.pending.Add(-1) == 0 && m.routed.Load() {
		m.finalize(w)
	}
}

func (m *mAgg) done(w int) {
	if m.run.ctx.Err() != nil {
		return
	}
	m.routed.Store(true)
	m.release(w)
}

// finalize runs once, after the last fold of a fully routed input: the
// blocking aggregation's pipeline-breaker barrier. It publishes the AIP
// state and fans the result emission out as one task per partition; the
// last emission task cascades done.
func (m *mAgg) finalize(w int) {
	total := 0
	spilledCount := 0
	for _, pt := range m.parts {
		total += len(pt.groups)
		if pt.run != nil {
			spilledCount++
		}
	}
	// SQL semantics: a global aggregate over empty input yields one row.
	// Appended before the state iterator is published, as in the chan
	// finisher: once the point is Done the group state is immutable. A
	// spilled run means the input was not empty — its groups live on disk.
	if total == 0 && len(m.h.GroupBy) == 0 && spilledCount == 0 {
		m.parts[0].groups = append(m.parts[0].groups, groupState{accs: make([]aggAcc, len(m.h.Aggs))})
	}
	if m.h.Point != nil {
		parts := m.parts
		m.h.Point.setStateIter(func(emit func(types.Tuple) bool) {
			for _, pt := range parts {
				for i := range pt.groups {
					if !emit(pt.groups[i].groupVals) {
						return
					}
				}
			}
		})
		m.h.Point.done.Store(true)
		m.run.ctx.pointDone(m.h.Point)
	}
	// Unspilled partitions emit in parallel as before; all spilled
	// partitions drain through one sequential task so at most one rebuilt
	// sub-bucket table occupies the merge share at a time.
	n := int64(m.P - spilledCount)
	if spilledCount > 0 {
		n++
	}
	m.remainingEmit.Store(n)
	for p := range m.parts {
		if m.parts[p].run != nil {
			continue
		}
		p := p
		m.run.pool.SubmitFrom(w, func(dw int) { m.emitPart(dw, p) })
	}
	if spilledCount > 0 {
		m.run.pool.SubmitFrom(w, func(dw int) { m.emitSpilled(dw) })
	}
}

// emitSpilled drains every spilled partition's run sequentially; the last
// emission task (this one or a parallel emitPart) cascades done.
func (m *mAgg) emitSpilled(dw int) {
	ctx := m.run.ctx
	for _, pt := range m.parts {
		if pt.run == nil {
			continue
		}
		if !pt.mergeSpill(ctx, m.op, len(m.h.GroupBy), m.h.Aggs, func(b Batch) bool {
			n := int64(b.Len())
			if !m.down.push(dw, b) {
				return false
			}
			m.op.Out.Add(n)
			return true
		}) {
			return
		}
	}
	if m.remainingEmit.Add(-1) == 0 && ctx.Err() == nil {
		m.down.done(dw)
	}
}

func (m *mAgg) emitPart(dw, p int) {
	pt := m.parts[p]
	var arena rowArena
	batch := GetBatch()
	flush := func() bool {
		if len(batch.Tuples) == 0 {
			return true
		}
		n := int64(len(batch.Tuples))
		if !m.down.push(dw, batch) {
			batch = Batch{}
			return false
		}
		m.op.Out.Add(n)
		batch = GetBatch()
		return true
	}
	for gi := range pt.groups {
		gs := &pt.groups[gi]
		row := arena.alloc(len(gs.groupVals) + len(m.h.Aggs))
		copy(row, gs.groupVals)
		for i := range m.h.Aggs {
			argKind := types.KindFloat
			if m.h.Aggs[i].Arg != nil {
				argKind = m.h.Aggs[i].Arg.Kind()
			}
			row[len(gs.groupVals)+i] = gs.accs[i].result(m.h.Aggs[i].Func, argKind)
		}
		batch.Tuples = append(batch.Tuples, row)
		if len(batch.Tuples) == BatchSize && !flush() {
			return
		}
	}
	if !flush() {
		return
	}
	PutBatch(batch)
	if m.remainingEmit.Add(-1) == 0 && m.run.ctx.Err() == nil {
		m.down.done(dw)
	}
}

// ---------------------------------------------------------------------------
// Distinct

// mDistRoute is one worker id's routing scratch for distinct.
type mDistRoute struct {
	sc   ProbeScratch // batch key hashing + AIP probing, hash-once
	keep []int32      // surviving selection when filters are attached
	bufs []*scatter
}

// mDistinctPart is one partition of the seen-set. The embedded
// distinctCore carries the set and the bucket-discard spill state shared
// with the chan engine.
type mDistinctPart struct {
	inbox mInbox
	distinctCore
	ids   []int32 // batch kernel scratch: key ids per scatter lane
	added []bool
}

type mDistinct struct {
	run     *morselRun
	d       *Distinct
	down    mChain
	op      *stats.OpStats
	P       int
	shift   uint
	allCols []int

	parts []*mDistinctPart
	route []mDistRoute

	pending atomic.Int64
	routed  atomic.Bool
}

func newMDistinct(r *morselRun, d *Distinct, down mChain) *mDistinct {
	P := r.ctx.partitions()
	P = clampPartitions(P, pointEstRows(d.Point))
	r.ctx.addMemParts(P)
	op := r.ctx.Stats.NewOp("distinct:" + d.Name)
	op.SetPartitions(P)
	if d.Point != nil {
		d.Point.Op = op
	}
	m := &mDistinct{run: r, d: d, down: down, op: op, P: P, shift: partShift(P)}
	m.pending.Store(1)
	m.allCols = make([]int, d.Child.Schema().Len())
	for i := range m.allCols {
		m.allCols[i] = i
	}
	m.parts = make([]*mDistinctPart, P)
	for p := range m.parts {
		m.parts[p] = &mDistinctPart{}
	}
	m.route = make([]mDistRoute, r.nw)
	for i := range m.route {
		m.route[i].bufs = make([]*scatter, P)
	}
	return m
}

func (m *mDistinct) push(w int, b Batch) bool {
	rt := &m.route[w]
	sel := b.Live()
	nIn := int64(len(sel))
	// ProbeBatch fills the scratch's hash/key arrays for every live lane
	// either way, so routing below reuses the hash-once work.
	kept := sel
	if m.d.Point != nil && m.d.Point.Bank.Len() > 0 {
		kept = m.d.Point.Bank.ProbeBatch(b.Tuples, m.allCols, sel, rt.keep[:0], &rt.sc)
		rt.keep = kept
	} else {
		rt.sc.compute(b.Tuples, m.allCols, sel)
	}
	for _, l := range kept {
		t := b.Tuples[l]
		kh := rt.sc.hashes[l]
		p := int(kh >> m.shift)
		buf := rt.bufs[p]
		if buf == nil {
			buf = getScatter(0)
			rt.bufs[p] = buf
		}
		buf.add(t, kh, rt.sc.key(l))
	}
	m.op.In.Add(nIn)
	m.op.Pruned.Add(nIn - int64(len(kept)))
	if m.d.Point != nil {
		m.d.Point.received.Add(nIn)
	}
	PutBatch(b)
	for p, sb := range rt.bufs {
		if sb == nil {
			continue
		}
		rt.bufs[p] = nil
		m.pending.Add(1)
		if m.parts[p].inbox.put(sb) {
			p := p
			m.run.pool.SubmitFrom(w, func(dw int) {
				m.parts[p].inbox.drainLoop(func(sb *scatter) bool {
					return m.dedup(dw, p, sb)
				})
			})
		}
	}
	return m.run.ctx.Err() == nil
}

// dedup is the chan distinct worker's body for one scatter: first
// occurrences are cloned into the seen-set (OnStore on the partition
// slot) and forwarded immediately — distinct stays pipelined.
func (m *mDistinct) dedup(dw, p int, sb *scatter) bool {
	pt := m.parts[p]
	ctx := m.run.ctx
	var stored, storedBytes int64
	preBytes := pt.memBytes()
	n := len(sb.tuples)
	pt.ids = growI32(pt.ids, n)
	if cap(pt.added) < n {
		pt.added = make([]bool, n)
	}
	pt.idx.InsertBatch(sb.hashes, sb.keys, sb.offs, pt.ids, pt.added[:n])
	fresh := GetBatch()
	for i, t := range sb.tuples {
		if pt.added[i] {
			pt.seen = append(pt.seen, t.Clone())
			stored++
			storedBytes += int64(t.MemSize())
			if m.d.Point != nil && m.d.Point.OnStore != nil {
				m.d.Point.OnStore(p, t)
			}
			// A spilled partition defers: this may duplicate an evicted
			// key, so the finalize replay decides.
			if !pt.deferred {
				fresh.Tuples = append(fresh.Tuples, t)
			}
		}
	}
	pt.tupBytes += storedBytes
	if delta := pt.memBytes() - preBytes; delta != 0 {
		ctx.account(delta)
		m.op.StateBytes.Add(delta)
		pt.bytes += delta
	}
	m.op.StateRows.Add(stored)
	pp := m.op.Part(p)
	pp.Rows.Add(stored)
	pp.Bytes.Add(storedBytes)
	if m.d.Point != nil {
		m.d.Point.stored.Add(stored)
	}
	if len(fresh.Tuples) == 0 {
		PutBatch(fresh)
	} else {
		n := int64(len(fresh.Tuples))
		if !m.down.push(dw, fresh) {
			// Cancelled: abandon without release (the chan engine's failed
			// flag) so the partial seen-state is never published.
			return false
		}
		m.op.Out.Add(n)
	}
	if ctx.memPressure(pt.bytes, m.P) {
		if err := pt.evict(ctx, m.op, m.d.Point); err != nil {
			ctx.CancelCause(err)
			return false
		}
	}
	putScatter(sb)
	m.release(dw)
	return true
}

func (m *mDistinct) release(w int) {
	if m.pending.Add(-1) == 0 && m.routed.Load() {
		m.finalize(w)
	}
}

func (m *mDistinct) done(w int) {
	if m.run.ctx.Err() != nil {
		return
	}
	m.routed.Store(true)
	m.release(w)
}

func (m *mDistinct) finalize(w int) {
	// Merge phase: spilled partitions replay their runs and emit the
	// deferred pending tuples whose keys were never claimed. Sequential, and
	// inline in the last release's task — it is the pipeline's tail work.
	ctx := m.run.ctx
	for _, pt := range m.parts {
		if pt.run == nil {
			continue
		}
		if !pt.mergeSpill(ctx, m.op, func(b Batch) bool {
			n := int64(b.Len())
			if !m.down.push(w, b) {
				return false
			}
			m.op.Out.Add(n)
			return true
		}) {
			return
		}
	}
	if m.d.Point != nil {
		parts := m.parts
		m.d.Point.setStateIter(func(emit func(types.Tuple) bool) {
			for _, pt := range parts {
				for _, t := range pt.seen {
					if !emit(t) {
						return
					}
				}
			}
		})
		m.d.Point.done.Store(true)
		m.run.ctx.pointDone(m.d.Point)
	}
	if m.run.ctx.Err() == nil {
		m.down.done(w)
	}
}
