package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/types"
)

// Bucket-discard spill for the blocking aggregation and the pipelined
// distinct, through the cores embedded in their partition structs.
//
// Aggregation state is mergeable: a group serializes to one record — its key
// values, then per aggregate a fixed-width block of aggRecWidth values
// (count, integer sum, float sum, seen flag, min, max; a slot the function
// does not keep is written as zero or NULL) — that a later pass folds back
// into the same columnar aggState the workers fold into (aggCol.merge), so
// unlike the join no arrival ordering needs to be preserved: evicting a
// partition just snapshots its groups to the run, and the finalize pass
// re-partitions the run into F hash sub-buckets, merging duplicate group
// keys as it rebuilds each one within the merge share.
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

// aggRecWidth is the number of serialized values per aggregate.
const aggRecWidth = 6

// record appends group g's aggRecWidth values to t.
func (c *aggCol) record(t types.Tuple, g int) types.Tuple {
	seen := c.cnt[g] > 0 && c.f != plan.AggCountStar
	t = append(t, types.Int(c.cnt[g]), types.Int(0), types.Float(0), types.Bool(seen), types.Null(), types.Null())
	switch r := t[len(t)-aggRecWidth:]; c.acc {
	case accISum:
		r[1].I = c.isum[g]
	case accSum:
		r[2].F = c.sum[g]
	case accMinMax:
		r[c.mmSlot()] = c.mm[g]
	}
	return t
}

// mmSlot is where a min (4) or max (5) sits in a record's block.
func (c *aggCol) mmSlot() int {
	if c.f == plan.AggMax {
		return 5
	}
	return 4
}

// merge folds a record's block for this aggregate into group g. Counts and
// sums add (a snapshot's are zero when never touched); min/max apply only
// when the snapshot had seen a value.
func (c *aggCol) merge(g int32, r []types.Value) {
	c.cnt[g] += r[0].I
	switch {
	case c.acc == accISum:
		c.isum[g] += r[1].I
	case c.acc == accSum:
		c.sum[g] += r[2].F
	case c.acc == accMinMax && r[3].I != 0:
		c.minmax(g, r[c.mmSlot()])
	}
}

// aggCore is the partition's aggregation state plus the bucket-discard spill
// state.
type aggCore struct {
	aggState
	partMem
	run     *spill.Run // nil until the first eviction
	spilled int64      // cumulative charge of the spilled groups
}

// writeGroups appends every group to the run as one record, gives the
// state's footprint back to op's StateBytes and empties the state. Group g's
// record carries the KeyTable's hash and key bytes for id g.
func (ac *aggCore) writeGroups(op *stats.OpStats) error {
	var rec spill.Record
	for g := 0; g < ac.idx.Len(); g++ {
		rec.Tuple = append(rec.Tuple[:0], ac.key(g)...)
		for k := range ac.cols {
			rec.Tuple = ac.cols[k].record(rec.Tuple, g)
		}
		rec.Hash, rec.Key = ac.idx.Hash(int32(g)), ac.idx.Key(int32(g))
		if err := ac.run.Append(&rec); err != nil {
			return err
		}
		ac.spilled += ac.charge(ac.key(g))
	}
	op.StateBytes.Add(-ac.memBytes())
	ac.reset()
	return nil
}

// evict is one bucket-discard of the aggregation partition.
func (ac *aggCore) evict(ctx *Context, op *stats.OpStats, point *Point) error {
	if err := ctx.ensureRun(&ac.run, "agg", op); err != nil {
		return err
	}
	if err := ac.writeGroups(op); err != nil {
		return err
	}
	ac.evicted(ctx, op, point)
	return nil
}

// finish emits the partition's result rows after input-done (see emitRows).
// A partition that spilled drains its run instead: the in-memory remainder
// joins it, then F sub-bucket passes each rebuild the state from the records
// of one sub-bucket — merging duplicate group keys, within the merge share —
// and emit it. Returns false when the query failed or was cancelled; the
// run is closed and removed either way.
func (ac *aggCore) finish(ctx *Context, op *stats.OpStats, arena *rowArena, batch *Batch, emit func(Batch) bool) bool {
	if ac.run == nil {
		return ac.emitRows(arena, batch, emit)
	}
	defer func() {
		ac.run.Close()
		ac.run = nil
	}()
	fail := func(err error) bool {
		ctx.CancelCause(err)
		return false
	}

	if err := ac.writeGroups(op); err != nil {
		return fail(err)
	}
	ac.release(ctx)

	// ac.spilled counts every snapshot of a group, so when evicted groups
	// re-accumulate it overstates the merged size: F is a sizing hint, not
	// a gate. The build pass enforces the budget on the actual merged state
	// and fails typed when even the maximum fan-out cannot fit one pass.
	F, passLimit, _ := ctx.mergeFanout(ac.spilled)

	width := ac.gw + len(ac.cols)*aggRecWidth
	t := make(types.Tuple, width) // the record being merged; its values are copied
	for f := 0; f < F; f++ {
		if ctx.Err() != nil {
			return false
		}
		err := readRun(ac.run, op, func(rd *spill.Reader) error {
			var rec spill.Record
			for {
				ok, err := nextIn(rd, &rec, f, F)
				if err != nil || !ok {
					return err
				}
				if rd.Width() != width {
					return fmt.Errorf("exec: spilled group of %d values, want %d", rd.Width(), width)
				}
				if err := rd.DecodeTuple(t); err != nil {
					return err
				}
				id, added := ac.idx.Insert(rec.Hash, rec.Key)
				if added {
					kv := t[:ac.gw]
					ac.keys = append(ac.keys, kv...)
					ac.groupBytes += ac.charge(kv)
					ac.grow()
					if sz := ac.memBytes(); passLimit > 0 && sz > passLimit {
						return &BudgetError{Op: op.Name, Budget: ctx.MemBudget, Need: 8 * sz}
					}
				}
				for k := range ac.cols {
					ac.cols[k].merge(id, t[ac.gw+k*aggRecWidth:])
				}
			}
		})
		if err != nil {
			return fail(err)
		}
		unpass := ctx.chargePass(op, ac.memBytes())
		ok := ac.emitRows(arena, batch, emit)
		unpass()
		ac.reset()
		if !ok {
			return false
		}
	}
	return true
}

// distinctCore is the partition-local distinct state plus the bucket-discard
// spill state.
type distinctCore struct {
	idx  types.KeyTable
	seen []types.Tuple

	tupBytes int64 // retained tuple payload bytes
	partMem
	run      *spill.Run // nil until the first eviction
	spilled  int64      // cumulative spilled key bytes (sizes finalize passes)
	deferred bool       // true once evicted: fresh firsts buffer, not forward
}

// memBytes approximates the partition's accounted footprint.
func (dc *distinctCore) memBytes() int64 {
	return int64(dc.idx.MemSize()) + dc.tupBytes + int64(cap(dc.seen))*24
}

// writeSeen appends the in-memory state to the run, gives its footprint back
// to op's StateBytes and resets it. The first eviction writes key-only
// claims (side 1: already forwarded); every later write carries the buffered
// pending tuples (side 0: not yet forwarded). Dense KeyTable ids align with
// the seen slice.
func (dc *distinctCore) writeSeen(op *stats.OpStats) error {
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
	op.StateBytes.Add(-dc.memBytes())
	dc.idx = types.KeyTable{}
	dc.seen = nil
	dc.tupBytes = 0
	dc.deferred = true
	return nil
}

// evict is one bucket-discard of the distinct partition.
func (dc *distinctCore) evict(ctx *Context, op *stats.OpStats, point *Point) error {
	if err := ctx.ensureRun(&dc.run, "distinct", op); err != nil {
		return err
	}
	if err := dc.writeSeen(op); err != nil {
		return err
	}
	dc.evicted(ctx, op, point)
	return nil
}

// mergeSpill drains a spilled distinct partition after input-done: the
// pending remainder joins the run, then F sub-bucket passes replay the run
// in write order — the first record to claim a key wins, and only a winning
// pending (side 0) record emits its tuple. Each pass holds only a KeyTable
// of the sub-bucket's keys; emit takes every batch, the last possibly
// empty. Returns false when the query failed or was cancelled; the run is
// closed and removed either way.
func (dc *distinctCore) mergeSpill(ctx *Context, op *stats.OpStats, emit func(Batch) bool) bool {
	if dc.run == nil {
		return true
	}
	defer func() {
		dc.run.Close()
		dc.run = nil
	}()

	if err := dc.writeSeen(op); err != nil {
		ctx.CancelCause(err)
		return false
	}
	dc.release(ctx)

	// dc.spilled re-counts a key each time it is re-claimed or re-buffered
	// after an eviction, so it overstates the deduped size: F is a sizing
	// hint, not a gate. The replay pass enforces the budget on the actual
	// per-sub-bucket key table and fails typed when it cannot fit.
	F, passLimit, _ := ctx.mergeFanout(dc.spilled)

	outBatch := GetBatch()
	for f := 0; f < F; f++ {
		if ctx.Err() != nil {
			PutBatch(outBatch)
			return false
		}
		var idx types.KeyTable
		sent := true
		err := readRun(dc.run, op, func(rd *spill.Reader) error {
			var rec spill.Record
			for {
				ok, err := nextIn(rd, &rec, f, F)
				if err != nil || !ok {
					return err
				}
				_, added := idx.Insert(rec.Hash, rec.Key)
				if added && passLimit > 0 && int64(idx.MemSize()) > passLimit {
					return &BudgetError{Op: op.Name, Budget: ctx.MemBudget, Need: 8 * int64(idx.MemSize())}
				}
				if !added || rec.Side != 0 {
					continue
				}
				// A winning pending record: its own allocation, safe downstream.
				t := make(types.Tuple, rd.Width())
				if err := rd.DecodeTuple(t); err != nil {
					return err
				}
				outBatch.Tuples = append(outBatch.Tuples, t)
				if len(outBatch.Tuples) == BatchSize {
					if sent = emit(outBatch); !sent {
						return nil
					}
					outBatch = GetBatch()
				}
			}
		})
		if err != nil {
			ctx.CancelCause(err)
			PutBatch(outBatch)
			return false
		}
		if !sent {
			return false
		}
		// The pass table peaks once per sub-bucket; charge it at its final
		// size so the query's high-water mark reflects the pass.
		ctx.chargePass(nil, int64(idx.MemSize()))()
	}
	return emit(outBatch)
}
