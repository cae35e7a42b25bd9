package exec

import (
	"math"
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
// One router goroutine per input (or the scan feeding it) performs the
// lock-free phase — AIP filter probe, then each survivor's key hashed once
// (inputRoute) — and scatters surviving tuples to P
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
// A routing scan that held its deliveries until then (start order's sibling
// wait) probes at the source: its chunk workers look their rows up in the
// finished tables and emit the matches themselves.
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

// newOps registers the two side stats blocks, each with its input's
// estimate and the width it contributes to the emitted row out of the width
// it receives.
func (j *HashJoin) newOps(ctx *Context) (lop, rop *stats.OpStats) {
	lop = ctx.Stats.NewOp("join:" + j.Name + ".left")
	rop = ctx.Stats.NewOp("join:" + j.Name + ".right")
	lop.EstRows, rop.EstRows = pointEstRows(j.LPoint), pointEstRows(j.RPoint)
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
	// tags, set when the side completes with at most tagKeys keys, are the
	// key index's hash tags, which the probe at the source tests first.
	tags *[16]uint64
}

// tagKeys is the most keys a completed join table gets hash tags for. Up to
// it, testing a mostly absent lane's tag bit before a one-lane lookup beats
// the batch lookup of every lane; past it, too many bits are set
// (BenchmarkSourceProbeTags: 1024 lanes, 1 in 64 present, on 2 vCPUs: at 16
// keys 2.3 against 6.1 ns a lane, at 64 keys 7.4 against 8.1, at 128 keys
// 11.2 against 8.7).
const tagKeys = 64

// tag sets the table's hash tags when it holds at most tagKeys keys.
func (jt *joinTable) tag() {
	if jt.idx.Len() <= tagKeys {
		tg := jt.idx.HashTags()
		jt.tags = &tg
	}
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

	// pending is 1 (the route's hold, released only when the route consumed
	// its whole input without being cancelled) plus the number of scattered
	// messages not yet fully processed by a worker. It reaches 0 at most
	// once, after the last probe of a fully routed input.
	pending atomic.Int64
	// done is set by the completion step: nothing of this side will ever
	// probe again, so the other side may stop buffering (§VI-A).
	done atomic.Bool
}

// sourceProbe is the probe at the source of one producer goroutine of a
// join input (inputRoute.probe): a routing scan that held its deliveries
// until its sibling completed looks each scatter up in the sibling's
// finished table of its partition and emits the matches itself. No worker
// hop and no ticket are needed: nothing of its side is stored, so each match
// is found once, here. A spilled partition gets the scatter as before, to
// merge it with its run; one that has not spilled never will (only its
// worker evicts, and it receives nothing more).
type sourceProbe struct {
	parts    []*joinCore
	side     int           // the probing input's
	mu       *sync.RWMutex // the join's stateMu, which evictions hold
	op       *stats.OpStats
	residual expr.Expr
	out      joinOut
	ids      []int32
}

// fork returns the probe of one more producer: its own output batch,
// residual and scratch.
func (s *sourceProbe) fork() *sourceProbe {
	f := *s
	f.out.b, f.out.resC, f.ids = GetBatch(), expr.Compile(s.residual), nil
	return &f
}

// take emits the matches of partition p's scatter sb; false, emitting
// nothing, when p has spilled and sb goes to p's worker instead.
func (s *sourceProbe) take(p int, sb *scatter) bool {
	t := &s.parts[p].tables[1-s.side]
	s.mu.RLock()
	spilled := s.parts[p].runs[0] != nil
	if !spilled {
		s.ids = resize(s.ids, sb.len())
		sb.lookupTagged(&t.idx, t.tags, s.ids)
	}
	s.mu.RUnlock()
	if spilled {
		return false
	}
	s.op.AtSource.Add(int64(sb.len()))
	s.out.probe(t, sb, s.ids, math.MaxUint64/2) // every stored ticket is below it
	return true
}

// joinOut gathers a join's output rows into batches and sends each, once
// full or flushed, after the residual (resC, may be nil): one EvalBool per
// batch instead of one Eval per row, the survivors marked by a selection.
type joinOut struct {
	b       Batch
	resC    *expr.Compiled
	send    func(Batch) bool
	g       *rowGather
	arena   rowArena
	matches []types.Tuple
}

// probe emits the matches of scatter sb in table t, whose key ids the caller
// resolved into ids: lane i pairs with the stored tuples of ticket below
// base+i+1, resolved only when it has one. False when a send failed.
func (o *joinOut) probe(t *joinTable, sb *scatter, ids []int32, base uint64) bool {
	for i, id := range ids {
		if o.matches = t.probeID(id, base+uint64(i)+1, o.matches[:0]); len(o.matches) == 0 {
			continue
		}
		tu := sb.tuple(i)
		for _, m := range o.matches {
			l, r := m, tu
			if sb.side == 0 {
				l, r = tu, m
			}
			if !o.add(o.arena.gather(o.g, l, r)) {
				return false
			}
		}
	}
	return true
}

// add appends one output row, sending the batch when it is full; false when
// a send failed (cancelled).
func (o *joinOut) add(row types.Tuple) bool {
	o.b.Tuples = append(o.b.Tuples, row)
	return len(o.b.Tuples) < BatchSize || o.flush()
}

// flush sends the rows gathered so far that pass the residual.
func (o *joinOut) flush() bool {
	if len(o.b.Tuples) == 0 {
		return true
	}
	b := o.b
	o.b = GetBatch()
	if o.resC != nil {
		b.Sel = o.resC.EvalBool(b.Tuples, identSel(len(b.Tuples)), getSel())
		if len(b.Sel) == 0 {
			PutBatch(b)
			return true
		}
	}
	return o.send(b)
}

// Start sizes the operator, starts one worker per partition and then the
// inputs (each routed by its scan or a router goroutine); workers emit their
// own matches, so the operator behaves like Tukwila's multithreaded join with
// the output thread folded in.
func (j *HashJoin) Start(ctx *Context) <-chan Batch {
	lop, rop := j.newOps(ctx)
	pr := newPartitioned(ctx, lop.EstRows+rop.EstRows, lop, rop)
	ops, points := [2]*stats.OpStats{lop, rop}, [2]*Point{j.LPoint, j.RPoint}
	inputs := [2]*joinInput{
		{side: 0, keys: j.LKeys, point: j.LPoint, op: lop},
		{side: 1, keys: j.RKeys, point: j.RPoint, op: rop},
	}
	for _, in := range inputs {
		in.pending.Store(1)
		if in.point != nil {
			in.point.Op = in.op
		}
	}
	// Each partition's tables, ticket counter and spill state are owned by
	// the worker draining its channel.
	parts := make([]*joinCore, pr.P)
	for p := range parts {
		parts[p] = &joinCore{}
		pr.mems[p] = &parts[p].partMem
		for s, in := range inputs {
			if in.point != nil {
				parts[p].tables[s].reserve(int(in.point.EstRows)/pr.P, joinKeyHint(in.point, in.keys, pr.P))
			}
		}
	}

	// release drops one pending reference and, when the input's routing
	// finished and its last scattered message is drained, completes it and
	// publishes its state. No insert follows (all happened before the
	// counter reached zero), but an eviction still may, so the AIP state
	// iterator and evictions exclude each other through stateMu.
	var stateMu sync.RWMutex
	release := func(own *joinInput) {
		if own.pending.Add(-1) != 0 {
			return
		}
		stateMu.RLock()
		for _, pt := range parts {
			pt.tables[own.side].tag()
		}
		stateMu.RUnlock()
		own.done.Store(true)
		ctx.publish(own.point, func(emit func(types.Tuple) bool) {
			stateMu.RLock()
			defer stateMu.RUnlock()
			for _, pt := range parts {
				t := &pt.tables[own.side]
				for i := range t.entries {
					if !emit(t.tuple(i)) {
						return
					}
				}
			}
		})
	}

	// A probing input's matches are counted on its Out.
	var sends [2]func(Batch) bool
	for s, in := range inputs {
		sends[s] = func(b Batch) bool { return send(ctx, pr.out, b, &in.op.Out) }
	}

	// feed starts one input. Only an input consumed in full, not truncated
	// by a cancellation, may publish its state: when its route ends so, its
	// hold is released, and completion runs there or on whichever worker
	// drains the last message.
	feed := func(child Op, own *joinInput) {
		rt := pr.route(own.side, own.op, own.point, own.keys)
		rt.sibling, rt.equi, rt.inflight = &inputs[1-own.side].done, true, &own.pending
		rt.source = &sourceProbe{parts: parts, side: own.side, mu: &stateMu, op: own.op,
			residual: j.Residual, out: joinOut{send: sends[own.side], g: &j.gather}}
		pr.feed(child, rt, func(complete bool) {
			if complete {
				release(own)
			}
		})
	}

	// The worker owns one partition. For each scattered message it inserts the
	// batch into the sending side's table (unless the other input already
	// completed: short-circuit) with fresh tickets, probes the other side's
	// table, and gathers earlier-ticket matches' Out columns into arena-backed
	// rows. The residual predicate is applied batch-at-a-time over the
	// gathered rows via the vectorized EvalBool, marking survivors with
	// a selection vector; rejected rows stay dead in their arena block
	// until the batch is recycled downstream. Each worker compiles its own
	// residual (Compiled carries scratch and is not goroutine-safe).
	pr.work(func(p int, in <-chan *scatter) bool {
		pt := parts[p]
		var (
			ids   []int32 // batch kernel scratch: key ids per scatter lane
			added []bool
		)
		out := joinOut{b: GetBatch(), resC: expr.Compile(j.Residual), g: &j.gather}
		defer func() { PutBatch(out.b) }()
		for sb := range in {
			own, other := inputs[sb.side], inputs[1-sb.side]
			ownT, otherT := &pt.tables[sb.side], &pt.tables[1-sb.side]
			pt.srcs[sb.side] = sb.src // what a spilled ref record of this side indexes
			n := sb.len()
			base := pt.ticket
			pt.ticket += uint64(n)
			ids = resize(ids, n)

			var stored, storedBytes int64
			preBytes := ownT.memBytes()
			if !other.done.Load() {
				added = resize(added, n)
				direct := ownT.idx.Direct()
				preTup := ownT.tupBytes
				ownT.insertBatch(sb, base, ids, added)
				if !direct && ownT.idx.Direct() {
					own.op.Direct.Add(1)
				}
				stored, storedBytes = int64(n), ownT.tupBytes-preTup
			} else if pt.runs[0] != nil {
				// The partition has spilled: evicted other-side entries may
				// still match these arrivals, so instead of the plain §VI-A
				// drop they go to the run under the current epoch.
				if err := pt.spillArrivals(sb, base); err != nil {
					ctx.CancelCause(err)
					return false
				}
			} else if own.point != nil {
				// The buffered state no longer reflects the full input;
				// Cost-Based AIP must not build a set from it.
				own.point.stateIncomplete.Store(true)
			}
			evict := pt.stored(ctx, own.op, own.point, p, pr.P, ownT.memBytes()-preBytes, stored, storedBytes)

			// Probe the other side's partition table and emit: resolve every
			// probe key's id in one prefetching pass over the other side's
			// table, then walk the match chains per lane; the probing tuple
			// is resolved only when it has a match to emit.
			out.send = sends[sb.side]
			sb.lookup(&otherT.idx, ids)
			if !out.probe(otherT, sb, ids, base) || !out.flush() {
				return false
			}

			// The eviction runs after the probe: evicting first would wipe
			// the co-resident matches this batch is entitled to emit (the
			// merge skips same-epoch pairs, so they would be lost for good).
			if evict {
				stateMu.Lock()
				err := pt.evict(ctx, ops, points)
				stateMu.Unlock()
				if err != nil {
					ctx.CancelCause(err)
					return false
				}
			}
			putScatter(sb)
			release(own)
		}
		return true
	})
	feed(j.Left, inputs[0])
	feed(j.Right, inputs[1])

	// Merge phase: spilled partitions re-scan their runs and emit the
	// cross-epoch matches phase 1 could not see. Sequential, so at most one
	// merge table occupies the merge share at a time; merged rows are
	// attributed to the left op like the spill counters.
	pr.finish(func() {
		var resC *expr.Compiled
		for _, pt := range parts {
			if pt.runs[0] == nil {
				continue
			}
			if resC == nil {
				resC = expr.Compile(j.Residual)
			}
			if !pt.mergeSpill(ctx, ops, lop.Name, &j.gather, resC, pr.emit) {
				return
			}
		}
	})
	return pr.out
}
