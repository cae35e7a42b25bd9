package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// HashJoin is the pipelined (symmetric) hash join of the paper: an arriving
// tuple is inserted into its side's hash table and immediately probed
// against the other side's table, so results stream as soon as both
// matching tuples have arrived, independent of input order or delays.
//
// Concurrency: the operator is radix partitioned (see the package comment).
// One router goroutine per input performs the lock-free phase — AIP filter
// probe and hash-once key encoding — and scatters surviving tuples to P
// partitions by the top bits of their key hash; tuples with equal keys land
// in the same partition. Each partition owns an independent pair of tables
// and a ticket counter, and is driven by exactly one worker goroutine, so
// inserts and probes for different partitions never contend and a single
// join saturates all cores rather than two.
//
// Exactly-once match emission holds per partition: every buffered tuple
// takes a ticket from its partition's counter, and a probing tuple emits
// only the matches whose ticket is smaller than its own. Because one worker
// serializes each partition, for any result pair the later-ticketed tuple
// is guaranteed to see the earlier one in its probe, and the earlier tuple
// never emits the later one. Tuples of different partitions never match
// (different key hashes), so the argument composes across partitions.
//
// It also implements the "short-circuit" optimization the paper describes
// in §VI-A: once one input completes — its router has finished and every
// scattered message has been drained, i.e. its last probe has happened —
// the other side stops buffering, since nothing will ever probe its table.
//
// A join emits only the columns listed in Out (projection pushdown: the
// optimizer keeps those read above the join), so a deep plan carries a narrow
// row instead of the concatenation of every table below it. Stored tuples are
// the inputs' own rows; the narrowing happens when a match is emitted.
type HashJoin struct {
	Name        string
	Left, Right Op
	LKeys       []int // equi-key columns of the left schema
	RKeys       []int // equi-key columns of the right schema
	// Out lists the emitted columns as positions in the concatenation of the
	// left and right schemas (left first, in that order); AllCols emits all.
	Out      []int
	Residual expr.Expr // evaluated over the emitted (Out) columns, may be nil

	// LPoint and RPoint are the AIP injection points for the two inputs.
	LPoint, RPoint *Point

	sch    *types.Schema
	gather rowGather
}

// NewHashJoin wires up the join; its schema is the concatenation of the
// inputs' schemas projected to out.
func NewHashJoin(name string, left, right Op, lkeys, rkeys, out []int, residual expr.Expr) *HashJoin {
	nl := left.Schema().Len()
	return &HashJoin{
		Name: name, Left: left, Right: right,
		LKeys: lkeys, RKeys: rkeys, Out: out, Residual: residual,
		sch:    left.Schema().Concat(right.Schema()).Project(out),
		gather: newRowGather(out, nl),
	}
}

// AllCols is the Out list of a join that emits every column of both inputs.
func AllCols(left, right Op) []int {
	out := make([]int, left.Schema().Len()+right.Schema().Len())
	for i := range out {
		out[i] = i
	}
	return out
}

// Schema returns the emitted schema.
func (j *HashJoin) Schema() *types.Schema { return j.sch }

// newOps registers the two side stats blocks, each with the width it
// contributes to the emitted row out of the width it receives.
func (j *HashJoin) newOps(ctx *Context) (lop, rop *stats.OpStats) {
	lop = ctx.Stats.NewOp("join:" + j.Name + ".left")
	rop = ctx.Stats.NewOp("join:" + j.Name + ".right")
	nl := j.Left.Schema().Len()
	lop.Width, rop.Width = nl, j.Right.Schema().Len()
	for _, c := range j.Out {
		if c < nl {
			lop.Cols++
		} else {
			rop.Cols++
		}
	}
	return lop, rop
}

// joinEntry is one stored tuple — its insertion ticket and where its header
// lives — chained to the next-older tuple of the same key. Pointer-free: the
// collector never scans a table's entries.
type joinEntry struct {
	seq  uint64
	next int32 // 1-based index of the next entry in the chain, 0 = end
	ref  int32 // index of the tuple in joinTable.rows
}

// joinTable is the open-addressing hash table of one join side within one
// partition: a KeyTable maps the key hash + bytes to a dense id, heads[id]
// starts the per-key chain through entries. Inserting a tuple costs no
// allocation beyond amortized slice growth — in particular no string key
// and no per-key bucket slice.
//
// An entry names its tuple by an index into rows: the scanned table's rows
// (index = row id) for a side fed by a routing scan, else the table's own
// append-only store of the arriving headers.
type joinTable struct {
	idx      types.KeyTable
	heads    []int32 // per key id: 1-based index of the newest entry
	entries  []joinEntry
	rows     []types.Tuple // what joinEntry.ref indexes
	own      bool          // rows is this table's own store (accounted, grown in room)
	tupBytes int64         // Σ MemSize of stored tuples, for state accounting
	hint     int           // expected stored tuples; see reserve
	keyHint  int           // expected distinct keys, ≤ hint
}

// joinFloorRows is the capacity a hinted join table starts with. Under AIP
// most inputs are pruned to a few hundred rows, so the optimizer's estimate
// is only worth allocating (and zeroing, and collecting) once arrivals show
// the input is not one of those. The floor has to cover what the pipeline
// delivers before the first filter can exist — on Q17 1–4 k lineitem rows
// reached the join before part completed, while scans started in plan order
// (startorder.go); at 256 rows half the partitions jumped to the hint — and
// 4096 entries is still only ~200 KB a table.
const joinFloorRows = 4096

// reserve records the expected number of stored tuples (the optimizer's
// cardinality estimate divided by the partition count) and of distinct keys
// among them (0: unknown, one per tuple) without allocating: the table starts
// at joinFloorRows and the first insert that outgrows the floor grows it
// straight to the hint (see room), which avoids the doubling-growth rehashes
// of a big input as well as a big reservation for rows that never arrive.
func (jt *joinTable) reserve(n, keys int) {
	const maxHint = 1 << 20 // cap mis-estimates: 1M entries ≈ 40MB
	jt.hint = min(n, maxHint)
	jt.keyHint = jt.hint
	if keys > 0 {
		jt.keyHint = min(keys, jt.hint)
	}
}

// joinKeyHint estimates the distinct keys one of P partitions of the input
// holds from the domain estimate of a single key column (+25% for radix
// imbalance); 0 when unknown.
func joinKeyHint(pt *Point, keys []int, P int) int {
	if len(keys) != 1 || keys[0] >= len(pt.DomainDistinct) || pt.DomainDistinct[keys[0]] <= 0 {
		return 0
	}
	return int(pt.DomainDistinct[keys[0]]*1.25)/P + 1
}

// room is called before n entries are inserted: the first insert allocates
// the floor (or a smaller hint), the first to outgrow the floor the hint —
// the key index and heads by the distinct-key hint (Q17's lineitem side has
// 30 rows per key), and at that jump the key index's per-key arrays too (at
// the floor they stay lazy: most inputs under AIP never leave it). Past the
// hint, and without one (or after a spill eviction), the slices and the key
// index grow by amortized doubling on their own.
func (jt *joinTable) room(n int) {
	c := min(jt.hint, joinFloorRows)
	if len(jt.entries)+n > joinFloorRows {
		c = jt.hint
	}
	if c <= cap(jt.entries) {
		return
	}
	k := min(c, jt.keyHint)
	if c > joinFloorRows {
		jt.idx.ReserveKeys(k)
	} else {
		jt.idx.Reserve(k)
	}
	jt.heads = append(make([]int32, 0, k), jt.heads...)
	jt.entries = append(make([]joinEntry, 0, c), jt.entries...)
	if jt.own {
		jt.rows = append(make([]types.Tuple, 0, c), jt.rows...)
	}
}

// link chains a new entry for key id with ticket seq and tuple index ref.
func (jt *joinTable) link(id int32, added bool, seq uint64, ref int32) {
	if added {
		jt.heads = append(jt.heads, 0)
	}
	jt.entries = append(jt.entries, joinEntry{seq: seq, next: jt.heads[id], ref: ref})
	jt.heads[id] = int32(len(jt.entries))
}

func (jt *joinTable) insert(h uint64, key []byte, t types.Tuple, seq uint64) {
	jt.own = true
	jt.room(1)
	id, added := jt.idx.Insert(h, key)
	jt.link(id, added, seq, int32(len(jt.rows)))
	jt.rows = append(jt.rows, t)
	jt.tupBytes += int64(t.MemSize())
}

// insertBatch inserts a whole scatter with consecutive tickets starting at
// baseSeq+1, resolving the key ids through the KeyTable's prefetching batch
// kernel for the scatter's key form (bytes or words). ids/added are caller
// scratch of the scatter's length. Lanes are chained in lane order, which
// matches the id order the kernel assigns, so heads grows in lockstep with
// the dense id space. Row ids are stored as they come; tuple headers go to
// the table's own store.
func (jt *joinTable) insertBatch(sb *scatter, baseSeq uint64, ids []int32, added []bool) {
	jt.own = sb.src == nil
	jt.room(sb.len())
	sb.insert(&jt.idx, ids, added)
	if jt.own {
		for i, t := range sb.tuples {
			jt.link(ids[i], added[i], baseSeq+uint64(i)+1, int32(len(jt.rows)))
			jt.rows = append(jt.rows, t)
		}
	} else {
		jt.rows = sb.src.rows
		for i, r := range sb.rids {
			jt.link(ids[i], added[i], baseSeq+uint64(i)+1, r)
		}
	}
	jt.tupBytes += sb.memSize()
}

// tuple returns the i-th stored tuple, in insertion order.
func (jt *joinTable) tuple(i int) types.Tuple { return jt.rows[jt.entries[i].ref] }

// probe appends to dst every stored tuple matching (h, key) whose ticket is
// smaller than maxSeq, and returns dst.
func (jt *joinTable) probe(h uint64, key []byte, maxSeq uint64, dst []types.Tuple) []types.Tuple {
	return jt.probeID(jt.idx.Lookup(h, key), maxSeq, dst)
}

// probeID is probe for an already-resolved key id (LookupBatch output).
func (jt *joinTable) probeID(id int32, maxSeq uint64, dst []types.Tuple) []types.Tuple {
	if id < 0 {
		return dst
	}
	for e := jt.heads[id]; e != 0; {
		ent := &jt.entries[e-1]
		if ent.seq < maxSeq {
			dst = append(dst, jt.rows[ent.ref])
		}
		e = ent.next
	}
	return dst
}

// joinInput is the side-level shared state of one join input.
type joinInput struct {
	side  int // 0 = left, 1 = right
	keys  []int
	point *Point
	op    *stats.OpStats

	// pending is 1 (the router's hold, released when the input channel
	// closes) plus the number of scattered messages not yet fully processed
	// by a worker. It reaches 0 exactly once, after the input's last probe.
	pending atomic.Int64
	// routed is set when the router consumed its whole input without being
	// cancelled; completion runs only for fully routed inputs.
	routed atomic.Bool
	// done is set by the completion step: nothing of this side will ever
	// probe again, so the other side may stop buffering (§VI-A).
	done atomic.Bool
}

// joinPart is one radix partition. Its tables, ticket counter, and spill
// state (the embedded joinCore) are owned exclusively by the worker
// goroutine draining in; single-owner processing replaces the per-side lock
// of the pre-partitioned engine.
type joinPart struct {
	in chan *scatter
	joinCore
}

// Start launches one router goroutine per input and one worker per
// partition; workers emit their own matches, so the operator behaves like
// Tukwila's multithreaded join with the output thread folded in.
func (j *HashJoin) Start(ctx *Context) <-chan Batch {
	out := make(chan Batch, pipelineDepth)

	P := ctx.partitions()
	P = clampPartitions(P, pointEstRows(j.LPoint)+pointEstRows(j.RPoint))
	ctx.addMemParts(P)

	lop, rop := j.newOps(ctx)
	lop.SetPartitions(P)
	rop.SetPartitions(P)

	inputs := [2]*joinInput{
		{side: 0, keys: j.LKeys, point: j.LPoint, op: lop},
		{side: 1, keys: j.RKeys, point: j.RPoint, op: rop},
	}
	inputs[0].pending.Store(1)
	inputs[1].pending.Store(1)
	for _, in := range inputs {
		if in.point != nil {
			in.point.Op = in.op
		}
	}
	ops := [2]*stats.OpStats{lop, rop}
	parts := make([]*joinPart, P)
	partIns := make([]chan *scatter, P)
	for p := range parts {
		parts[p] = &joinPart{in: make(chan *scatter, pipelineDepth)}
		partIns[p] = parts[p].in
		for s, in := range inputs {
			if in.point != nil {
				parts[p].tables[s].reserve(int(in.point.EstRows)/P, joinKeyHint(in.point, in.keys, P))
			}
		}
	}

	// finish marks one input complete: no insert follows (all happened before
	// the pending counter reached zero), but an eviction still may, so the
	// AIP state iterator and evictions exclude each other through stateMu.
	var stateMu sync.RWMutex
	finish := func(own *joinInput) {
		own.done.Store(true)
		if own.point != nil {
			side := own.side
			own.point.setStateIter(func(emit func(types.Tuple) bool) {
				stateMu.RLock()
				defer stateMu.RUnlock()
				for _, pt := range parts {
					for i := range pt.tables[side].entries {
						if !emit(pt.tables[side].tuple(i)) {
							return
						}
					}
				}
			})
			own.point.done.Store(true)
			ctx.pointDone(own.point)
		}
	}

	// release drops one pending reference and runs completion when the
	// input's routing finished and its last scattered message is drained.
	release := func(own *joinInput) {
		if own.pending.Add(-1) == 0 && own.routed.Load() {
			finish(own)
		}
	}

	var routers atomic.Int32
	routers.Store(2)

	// routingDone ends one input's lock-free phase, whoever drove it. Only an
	// input consumed in full, not truncated by a cancellation, may publish
	// its state: its hold is released, and completion runs here or on
	// whichever worker drains the last message.
	routingDone := func(own *joinInput, complete bool) {
		if complete {
			own.routed.Store(true)
			release(own)
		}
		if routers.Add(-1) == 0 {
			for _, pt := range parts {
				close(pt.in)
			}
		}
	}

	// router drives one input's route batch-at-a-time; each scattered message
	// is counted in-flight for the completion protocol.
	router := func(in <-chan Batch, rt *inputRoute) {
		complete := false
		defer func() { rt.done(complete) }()
		var sc ProbeScratch // batch key hashing + AIP probing, hash-once
		keep := getSel()    // surviving selection when filters are attached
		defer func() { putSel(keep) }()
		for b := range in {
			sel := b.Live()
			rt.lanes(ctx, &sc, b.Tuples, sel, keep[:0], -1)
			rt.op.In.Add(int64(len(sel)))
			PutBatch(b)
			if !rt.flush(ctx, 0) {
				return
			}
		}
		// The input channel closing means either a fully consumed input or
		// an upstream cancellation truncating the stream.
		complete = ctx.Err() == nil
	}

	// feed starts one input: a scan that can route for it (routingScan) drives
	// the route itself, anything else streams batches to a router goroutine.
	// Inputs start only now: a scan that probes on a point's behalf accounts
	// its pruning through Point.Op.
	feed := func(child Op, own *joinInput) {
		rt := newInputRoute(own.side, P, partIns)
		rt.keys, rt.point, rt.op, rt.store, rt.equi = own.keys, own.point, own.op, true, true
		rt.beforeSend = func() { own.pending.Add(1) }
		rt.onCancel = func() { own.pending.Add(-1) }
		rt.done = func(complete bool) { routingDone(own, complete) }
		if sc, pred := routingScan(child, own.point, own.keys); sc != nil {
			sc.start(ctx, pred, rt, nil)
			return
		}
		in := child.Start(ctx)
		ctx.Spawn(func() { router(in, rt) })
	}

	var workerWg sync.WaitGroup
	workerWg.Add(P)

	// worker owns one partition. For each scattered message it inserts the
	// batch into the sending side's table (unless the other input already
	// completed: short-circuit) with fresh tickets, probes the other side's
	// table, and gathers earlier-ticket matches' Out columns into arena-backed
	// rows. The residual predicate is applied batch-at-a-time over the
	// gathered rows via the vectorized EvalBool, marking survivors with
	// a selection vector; rejected rows stay dead in their arena block
	// until the batch is recycled downstream. Each worker compiles its own
	// residual (Compiled carries scratch and is not goroutine-safe).
	worker := func(pidx int) {
		defer workerWg.Done()
		pt := parts[pidx]
		var (
			matches []types.Tuple
			arena   rowArena
			resC    = expr.Compile(j.Residual)
			ids     []int32 // batch kernel scratch: key ids per scatter lane
			added   []bool
		)
		for sb := range pt.in {
			own, other := inputs[sb.side], inputs[1-sb.side]
			ownT, otherT := &pt.tables[sb.side], &pt.tables[1-sb.side]
			pt.srcs[sb.side] = sb.src // what a spilled ref record of this side indexes
			n := sb.len()
			base := pt.ticket
			pt.ticket += uint64(n)
			ids = growI32(ids, n)

			var stored, storedBytes int64
			preBytes := ownT.memBytes()
			preTup := ownT.tupBytes
			if !other.done.Load() {
				if cap(added) < n {
					added = make([]bool, n)
				}
				ownT.insertBatch(sb, base, ids, added[:n])
				stored = int64(n)
				storedBytes = ownT.tupBytes - preTup
			} else if pt.runs[0] != nil {
				// The partition has spilled: evicted other-side entries may
				// still match these arrivals, so instead of the plain §VI-A
				// drop they go to the run under the current epoch.
				if err := pt.spillArrivals(sb, base); err != nil {
					ctx.CancelCause(err)
					return
				}
			} else if own.point != nil {
				// The buffered state no longer reflects the full input;
				// Cost-Based AIP must not build a set from it.
				own.point.stateIncomplete.Store(true)
			}
			if delta := ownT.memBytes() - preBytes; delta != 0 {
				ctx.account(delta)
				own.op.StateBytes.Add(delta)
				pt.bytes += delta
			}

			// Probe the other side's partition table and emit. Out is
			// counted per flushed batch at the send site, so cancelled
			// queries report exactly the tuples that were delivered.
			outBatch := GetBatch()
			// emit runs the residual over the accumulated candidate rows
			// (one EvalBool per batch instead of one Eval per row) and
			// sends the surviving selection.
			emit := func() bool {
				if len(outBatch.Tuples) == 0 {
					return true
				}
				if resC != nil {
					outBatch.Sel = resC.EvalBool(outBatch.Tuples, identSel(len(outBatch.Tuples)), getSel())
					if len(outBatch.Sel) == 0 {
						PutBatch(outBatch)
						outBatch = GetBatch()
						return true
					}
				}
				n := int64(outBatch.Len())
				if !send(ctx, out, outBatch) {
					return false
				}
				own.op.Out.Add(n)
				outBatch = GetBatch()
				return true
			}
			ownIsLeft := sb.side == 0
			// Resolve every probe key's id in one prefetching pass over the
			// other side's table, then walk the match chains per lane; the
			// probing tuple is resolved only when it has a match to emit.
			sb.lookup(&otherT.idx, ids)
			for i := 0; i < n; i++ {
				matches = otherT.probeID(ids[i], base+uint64(i)+1, matches[:0])
				if len(matches) == 0 {
					continue
				}
				t := sb.tuple(i)
				for _, m := range matches {
					l, r := m, t
					if ownIsLeft {
						l, r = t, m
					}
					outBatch.Tuples = append(outBatch.Tuples, arena.gather(&j.gather, l, r))
					if len(outBatch.Tuples) == BatchSize {
						if !emit() {
							return
						}
					}
				}
			}
			if !emit() {
				return
			}
			PutBatch(outBatch)

			// Pressure check runs after the probe: evicting first would wipe
			// the co-resident matches this batch is entitled to emit (the
			// merge skips same-epoch pairs, so they would be lost for good).
			if ctx.memPressure(pt.bytes, P) {
				stateMu.Lock()
				err := pt.evict(ctx, ops, [2]*Point{j.LPoint, j.RPoint})
				stateMu.Unlock()
				if err != nil {
					ctx.CancelCause(err)
					return
				}
			}

			// Batch-grained stats flush, folded into the side totals and the
			// per-partition skew counters. StateBytes was already moved by
			// the accounting delta above.
			own.op.StateRows.Add(stored)
			pp := own.op.Part(pidx)
			pp.Rows.Add(stored)
			pp.Bytes.Add(storedBytes)
			if own.point != nil {
				own.point.stored.Add(stored)
			}
			putScatter(sb)
			release(own)
		}
	}

	for p := 0; p < P; p++ {
		p := p
		ctx.Spawn(func() { worker(p) })
	}
	feed(j.Left, inputs[0])
	feed(j.Right, inputs[1])
	ctx.Spawn(func() {
		defer close(out) // also when a merge panics: the query fails, not hangs
		workerWg.Wait()
		// Merge phase: spilled partitions re-scan their runs and emit the
		// cross-epoch matches phase 1 could not see. Sequential, so at most
		// one merge table occupies the merge share at a time; merged rows
		// are attributed to the left op like the spill counters.
		var resC *expr.Compiled
		for _, pt := range parts {
			if pt.runs[0] == nil {
				continue
			}
			if resC == nil {
				resC = expr.Compile(j.Residual)
			}
			if !pt.mergeSpill(ctx, ops, lop.Name, &j.gather, resC, func(b Batch) bool {
				n := int64(b.Len())
				if !send(ctx, out, b) {
					return false
				}
				lop.Out.Add(n)
				return true
			}) {
				break
			}
		}
		for _, pt := range parts {
			ctx.account(-pt.bytes) // the tables die with the operator
		}
	})
	return out
}
