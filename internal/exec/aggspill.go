package exec

import (
	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/types"
)

// Bucket-discard spill for the blocking aggregation and the pipelined
// distinct, through the cores embedded in their partition structs.
//
// Aggregation state is mergeable: a group's accumulators serialize to a
// fixed-width value block (count, integer and float sums, seen flag, min,
// max) that a later pass folds back together with aggAcc.merge, so unlike
// the join no arrival ordering needs to be preserved — evicting a partition
// just snapshots its groups to the run, and the finalize pass re-partitions
// the run into F hash sub-buckets, merging duplicate group keys as it
// rebuilds each one within the merge share.
//
// Distinct is emit-once rather than mergeable, which changes the discipline:
// before the first eviction, first occurrences are forwarded immediately (the
// operator stays pipelined). The first eviction writes a key-only "claimed"
// record (side 1) for every key seen so far — those tuples were already
// forwarded — and flips the partition into deferred mode: from then on fresh
// first occurrences are buffered but NOT forwarded, because the in-memory
// set can no longer prove a tuple was never seen. Later evictions and the
// finalize remainder write the buffered pending tuples as side-0 records.
// The finalize pass scans the run in chronological order per sub-bucket:
// the first record to claim a key wins, and only a winning side-0 record
// emits its tuple — claims always precede the pendings they shadow because
// side-1 records are written before any side-0 record exists.

// aggAccRecWidth is the number of serialized values per accumulator.
const aggAccRecWidth = 6

// aggAccBytes estimates one accumulator's in-memory footprint, matching the
// 48-byte-per-agg estimate the fold loops already charge to StateBytes.
const aggAccBytes = 48

// merge folds a deserialized accumulator snapshot into a. Counts and sums
// add unconditionally (they are zero when never touched); min/max only
// apply when the snapshot had seen a value.
func (a *aggAcc) merge(f plan.AggFunc, count, sumI int64, sumF float64, seen bool, min, max types.Value) {
	a.count += count
	a.sumI += sumI
	a.sumF += sumF
	if !seen {
		return
	}
	switch f {
	case plan.AggMin:
		if !a.seen || types.Compare(min, a.min) < 0 {
			a.min = min
		}
	case plan.AggMax:
		if !a.seen || types.Compare(max, a.max) > 0 {
			a.max = max
		}
	}
	a.seen = true
}

// aggCore is the partition-local aggregation state plus the bucket-discard
// spill state.
type aggCore struct {
	idx    types.KeyTable
	groups []groupState
	accs   accAllocator

	groupBytes int64      // accumulated per-group payload estimate
	bytes      int64      // accounted footprint of this partition
	run        *spill.Run // nil until the first eviction
	spilled    int64      // cumulative spilled group payload bytes
}

// memBytes approximates the partition's accounted footprint.
func (ac *aggCore) memBytes() int64 {
	return int64(ac.idx.MemSize()) + ac.groupBytes
}

// writeGroups appends every group to the run as one record — group values
// followed by aggAccRecWidth serialized values per accumulator — and resets
// the in-memory state. Group ids are KeyTable-dense, so groups[id] is the
// state for key id.
func (ac *aggCore) writeGroups(aggs []plan.AggSpec) error {
	var rec spill.Record
	scratch := make(types.Tuple, 0, 8)
	for id := int32(0); id < int32(ac.idx.Len()); id++ {
		gs := &ac.groups[id]
		t := append(scratch[:0], gs.groupVals...)
		for k := range aggs {
			a := &gs.accs[k]
			t = append(t, types.Int(a.count), types.Int(a.sumI), types.Float(a.sumF),
				types.Bool(a.seen), a.min, a.max)
		}
		rec.Hash = ac.idx.Hash(id)
		rec.Key = ac.idx.Key(id)
		rec.Tuple = t
		if err := ac.run.Append(&rec); err != nil {
			return err
		}
		ac.spilled += int64(gs.groupVals.MemSize()) + int64(aggAccBytes*len(aggs))
		scratch = t
	}
	ac.idx = types.KeyTable{}
	ac.groups = nil
	ac.accs.free = nil
	ac.groupBytes = 0
	return nil
}

// evict is one bucket-discard of the aggregation partition.
func (ac *aggCore) evict(ctx *Context, op *stats.OpStats, point *Point, aggs []plan.AggSpec) error {
	if ac.run == nil {
		dir, err := ctx.SpillDir()
		if err != nil {
			return err
		}
		run, err := spill.NewRun(dir, "agg")
		if err != nil {
			return err
		}
		ac.run = run
	}
	pre := ac.run.Bytes()
	if err := ac.writeGroups(aggs); err != nil {
		return err
	}
	if err := ac.run.Flush(); err != nil {
		return err
	}
	ctx.account(-ac.bytes)
	op.StateBytes.Add(-ac.bytes)
	ac.bytes = 0
	n := ac.run.Bytes() - pre
	ctx.noteSpill(n)
	op.SpillBytes.Add(n)
	op.SpillEvents.Inc()
	if point != nil {
		point.stateIncomplete.Store(true)
	}
	return nil
}

// mergeSpill drains a spilled aggregation partition after input-done: the
// in-memory remainder joins the run, then F sub-bucket passes rebuild and
// merge the groups within the merge share and emit the finished rows.
// Returns false when the query failed or was cancelled; the run is closed
// and removed either way. emit does not count Out — the caller's callback
// owns downstream delivery and stats.
func (ac *aggCore) mergeSpill(ctx *Context, op *stats.OpStats, gw int, aggs []plan.AggSpec, emit func(Batch) bool) bool {
	if ac.run == nil {
		return true
	}
	defer func() {
		ac.run.Close()
		ac.run = nil
	}()

	pre := ac.run.Bytes()
	if err := ac.writeGroups(aggs); err != nil {
		ctx.CancelCause(err)
		return false
	}
	if err := ac.run.Flush(); err != nil {
		ctx.CancelCause(err)
		return false
	}
	ctx.account(-ac.bytes)
	op.StateBytes.Add(-ac.bytes)
	ac.bytes = 0
	if n := ac.run.Bytes() - pre; n > 0 {
		ctx.spillBytes.Add(n)
		op.SpillBytes.Add(n)
	}

	// ac.spilled counts every snapshot of a group, so when evicted groups
	// re-accumulate it overstates the merged size: F is a sizing hint, not
	// a gate. The build pass enforces the budget on the actual merged table
	// and fails typed when even the maximum fan-out cannot fit one pass.
	share := ctx.mergeShare()
	F := 1
	for F < spillMaxFanout && 2*ac.spilled/int64(F) > share {
		F <<= 1
	}

	argKinds := make([]types.Kind, len(aggs))
	for i := range aggs {
		argKinds[i] = types.KindFloat
		if aggs[i].Arg != nil {
			argKinds[i] = aggs[i].Arg.Kind()
		}
	}

	var passLimit int64
	if ctx.MemBudget > 0 {
		passLimit = 2 * share
	}
	perGroup := int64(aggAccBytes*len(aggs) + gw*16)

	outBatch := GetBatch()
	fail := func(err error) bool {
		ctx.CancelCause(err)
		PutBatch(outBatch)
		return false
	}
	var arena rowArena
	var rec spill.Record
	for f := 0; f < F; f++ {
		if ctx.Err() != nil {
			PutBatch(outBatch)
			return false
		}
		// Rebuild this sub-bucket's groups, merging duplicate keys. The
		// selector uses middle hash bits — top bits picked the partition,
		// low bits index the KeyTable's slots.
		var (
			idx    types.KeyTable
			groups []groupState
			alloc  = accAllocator{width: len(aggs)}
		)
		rd, err := ac.run.Reader()
		if err != nil {
			return fail(err)
		}
		for {
			ok, err := rd.Next(&rec)
			if err != nil {
				rd.Close()
				return fail(err)
			}
			if !ok {
				break
			}
			if int((rec.Hash>>32)&uint64(F-1)) != f {
				continue
			}
			id, added := idx.Insert(rec.Hash, rec.Key)
			if added {
				// rec.Tuple is freshly allocated per record, so the group
				// values slice can be retained directly.
				groups = append(groups, groupState{groupVals: rec.Tuple[:gw:gw], accs: alloc.alloc()})
				if sz := int64(idx.MemSize()) + int64(len(groups))*perGroup; passLimit > 0 && sz > passLimit {
					rd.Close()
					return fail(&BudgetError{Op: op.Name, Budget: ctx.MemBudget, Need: 8 * sz})
				}
			}
			gs := &groups[id]
			for k := range aggs {
				o := gw + k*aggAccRecWidth
				gs.accs[k].merge(aggs[k].Func,
					rec.Tuple[o].I, rec.Tuple[o+1].I, rec.Tuple[o+2].F,
					rec.Tuple[o+3].I != 0, rec.Tuple[o+4], rec.Tuple[o+5])
			}
		}
		rd.Close()
		passBytes := int64(idx.MemSize()) + int64(len(groups))*int64(aggAccBytes*len(aggs)+gw*16)
		ctx.account(passBytes)
		op.StateBytes.Add(passBytes)

		for gi := range groups {
			gs := &groups[gi]
			row := arena.alloc(gw + len(aggs))
			copy(row, gs.groupVals)
			for i := range aggs {
				row[gw+i] = gs.accs[i].result(aggs[i].Func, argKinds[i])
			}
			outBatch.Tuples = append(outBatch.Tuples, row)
			if len(outBatch.Tuples) == BatchSize {
				if !emit(outBatch) {
					ctx.account(-passBytes)
					op.StateBytes.Add(-passBytes)
					return false
				}
				outBatch = GetBatch()
			}
		}
		ctx.account(-passBytes)
		op.StateBytes.Add(-passBytes)
	}
	if len(outBatch.Tuples) > 0 {
		if !emit(outBatch) {
			return false
		}
	} else {
		PutBatch(outBatch)
	}
	return true
}

// distinctCore is the partition-local distinct state plus the bucket-discard
// spill state.
type distinctCore struct {
	idx  types.KeyTable
	seen []types.Tuple

	tupBytes int64      // retained tuple payload bytes
	bytes    int64      // accounted footprint of this partition
	run      *spill.Run // nil until the first eviction
	spilled  int64      // cumulative spilled key bytes (sizes finalize passes)
	deferred bool       // true once evicted: fresh firsts buffer, not forward
}

// memBytes approximates the partition's accounted footprint.
func (dc *distinctCore) memBytes() int64 {
	return int64(dc.idx.MemSize()) + dc.tupBytes + int64(cap(dc.seen))*24
}

// writeSeen appends the in-memory state to the run and resets it. The first
// eviction writes key-only claims (side 1: already forwarded); every later
// write carries the buffered pending tuples (side 0: not yet forwarded).
// Dense KeyTable ids align with the seen slice.
func (dc *distinctCore) writeSeen() error {
	var rec spill.Record
	claimed := !dc.deferred
	for id := int32(0); id < int32(dc.idx.Len()); id++ {
		rec.Hash = dc.idx.Hash(id)
		rec.Key = dc.idx.Key(id)
		if claimed {
			rec.Side = 1
			rec.Tuple = nil
		} else {
			rec.Side = 0
			rec.Tuple = dc.seen[id]
		}
		if err := dc.run.Append(&rec); err != nil {
			return err
		}
		dc.spilled += int64(len(rec.Key)) + 48
	}
	dc.idx = types.KeyTable{}
	dc.seen = nil
	dc.tupBytes = 0
	dc.deferred = true
	return nil
}

// evict is one bucket-discard of the distinct partition.
func (dc *distinctCore) evict(ctx *Context, op *stats.OpStats, point *Point) error {
	if dc.run == nil {
		dir, err := ctx.SpillDir()
		if err != nil {
			return err
		}
		run, err := spill.NewRun(dir, "distinct")
		if err != nil {
			return err
		}
		dc.run = run
	}
	pre := dc.run.Bytes()
	if err := dc.writeSeen(); err != nil {
		return err
	}
	if err := dc.run.Flush(); err != nil {
		return err
	}
	ctx.account(-dc.bytes)
	op.StateBytes.Add(-dc.bytes)
	dc.bytes = 0
	n := dc.run.Bytes() - pre
	ctx.noteSpill(n)
	op.SpillBytes.Add(n)
	op.SpillEvents.Inc()
	if point != nil {
		point.stateIncomplete.Store(true)
	}
	return nil
}

// mergeSpill drains a spilled distinct partition after input-done: the
// pending remainder joins the run, then F sub-bucket passes replay the run
// in write order — the first record to claim a key wins, and only a winning
// pending (side 0) record emits its tuple. Each pass holds only a KeyTable
// of the sub-bucket's keys. Returns false when the query failed or was
// cancelled; the run is closed and removed either way.
func (dc *distinctCore) mergeSpill(ctx *Context, op *stats.OpStats, emit func(Batch) bool) bool {
	if dc.run == nil {
		return true
	}
	defer func() {
		dc.run.Close()
		dc.run = nil
	}()

	pre := dc.run.Bytes()
	if err := dc.writeSeen(); err != nil {
		ctx.CancelCause(err)
		return false
	}
	if err := dc.run.Flush(); err != nil {
		ctx.CancelCause(err)
		return false
	}
	ctx.account(-dc.bytes)
	op.StateBytes.Add(-dc.bytes)
	dc.bytes = 0
	if n := dc.run.Bytes() - pre; n > 0 {
		ctx.spillBytes.Add(n)
		op.SpillBytes.Add(n)
	}

	// dc.spilled re-counts a key each time it is re-claimed or re-buffered
	// after an eviction, so it overstates the deduped size: F is a sizing
	// hint, not a gate. The replay pass enforces the budget on the actual
	// per-sub-bucket key table and fails typed when it cannot fit.
	share := ctx.mergeShare()
	F := 1
	for F < spillMaxFanout && 2*dc.spilled/int64(F) > share {
		F <<= 1
	}
	var passLimit int64
	if ctx.MemBudget > 0 {
		passLimit = 2 * share
	}

	outBatch := GetBatch()
	var rec spill.Record
	for f := 0; f < F; f++ {
		if ctx.Err() != nil {
			PutBatch(outBatch)
			return false
		}
		var idx types.KeyTable
		rd, err := dc.run.Reader()
		if err != nil {
			ctx.CancelCause(err)
			PutBatch(outBatch)
			return false
		}
		for {
			ok, err := rd.Next(&rec)
			if err != nil {
				rd.Close()
				ctx.CancelCause(err)
				PutBatch(outBatch)
				return false
			}
			if !ok {
				break
			}
			if int((rec.Hash>>32)&uint64(F-1)) != f {
				continue
			}
			_, added := idx.Insert(rec.Hash, rec.Key)
			if added && passLimit > 0 && int64(idx.MemSize()) > passLimit {
				rd.Close()
				ctx.CancelCause(&BudgetError{Op: op.Name, Budget: ctx.MemBudget, Need: 8 * int64(idx.MemSize())})
				PutBatch(outBatch)
				return false
			}
			if added && rec.Side == 0 {
				// rec.Tuple is freshly allocated per record: safe downstream.
				outBatch.Tuples = append(outBatch.Tuples, rec.Tuple)
				if len(outBatch.Tuples) == BatchSize {
					if !emit(outBatch) {
						rd.Close()
						return false
					}
					outBatch = GetBatch()
				}
			}
		}
		rd.Close()
		// The pass table peaks once per sub-bucket; charge it at its final
		// size so the high-water mark reflects the pass.
		passBytes := int64(idx.MemSize())
		ctx.account(passBytes)
		ctx.account(-passBytes)
	}
	if len(outBatch.Tuples) > 0 {
		if !emit(outBatch) {
			return false
		}
	} else {
		PutBatch(outBatch)
	}
	return true
}
