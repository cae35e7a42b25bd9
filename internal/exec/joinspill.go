package exec

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/spill"
	"repro/internal/stats"
)

// Bucket-discard spill for the symmetric hash join, through the joinCore
// embedded in its partition struct.
//
// # Eviction
//
// When a partition's accounted state crosses its share of the query budget
// (Context.memPressure), the whole partition — both side tables together —
// is serialized to its spill run and the memory reclaimed. The partition's
// ticket clock at each eviction is recorded as an epoch boundary: an entry's
// epoch is the number of boundaries smaller than its ticket, so two entries
// share an epoch exactly when they were co-resident in memory (both sides
// are always evicted together). Evicting invalidates the in-memory state as
// an input summary, so both AIP points are marked state-incomplete.
//
// # Exactly-once across phases
//
// Phase 1 (arrival-driven probing) emits precisely the match pairs whose two
// members were co-resident — same epoch. The merge phase re-scans the run
// and emits only pairs whose epochs differ. The union is every match pair;
// the intersection is empty; each pair is considered exactly once in the
// merge because its members sit on opposite sides. The §VI-A short-circuit
// changes shape on a spilled partition: a tuple arriving after the other
// input completed may still match evicted entries, so instead of being
// dropped it is appended to the run under the current epoch (its in-memory
// matches were already emitted by its phase-1 probe, and they flush under
// the same epoch, so the merge skips them).
//
// # Merge
//
// After both inputs are done, each spilled partition flushes its in-memory
// remainder (final epoch) and is drained as a plain hash join over the run:
// the side that spilled fewer payload bytes is built, fanned out into F hash
// sub-buckets so one build table fits the merge share (Context.mergeShare),
// and the other side streams past it. F is capped at spillMaxFanout; a
// budget too small for even the maximum fan-out fails the query with a
// typed *BudgetError instead of thrashing.

// joinEntryBytes is the fixed footprint of a joinTable entry (ticket, chain
// link, tuple index); tupleHeaderBytes that of a header in a table's own row
// store.
const (
	joinEntryBytes   = 16
	tupleHeaderBytes = 24
)

// spillMaxFanout bounds the merge phase's sub-bucket fan-out. Beyond it the
// budget is declared unworkable (*BudgetError) rather than thrashed against.
const spillMaxFanout = 64

// memBytes approximates the table's accounted footprint: key index, chain
// arrays, its own header store if it keeps one, and stored tuple payloads.
func (jt *joinTable) memBytes() int64 {
	n := int64(jt.idx.MemSize()) + int64(cap(jt.heads))*4 +
		int64(cap(jt.entries))*joinEntryBytes + jt.tupBytes
	if jt.own {
		n += int64(cap(jt.rows)) * tupleHeaderBytes
	}
	return n
}

// joinCore is the partition-local join state: the two side tables, the
// arrival-ticket clock, and the bucket-discard spill state.
type joinCore struct {
	tables [2]joinTable // indexed by side
	ticket uint64

	bytes      int64      // accounted in-memory state bytes of this partition
	run        *spill.Run // nil until the first eviction
	boundaries []uint64   // ticket clock at each eviction, ascending
	spilled    [2]int64   // cumulative spilled tuple payload bytes per side
}

// memBytes is the partition's current accounted footprint.
func (jc *joinCore) memBytes() int64 {
	return jc.tables[0].memBytes() + jc.tables[1].memBytes()
}

// epochOf returns the eviction epoch of a ticket: the number of boundaries
// recorded before the entry was stored.
func epochOf(boundaries []uint64, seq uint64) int {
	return sort.Search(len(boundaries), func(i int) bool { return boundaries[i] >= seq })
}

// ensureRun lazily creates the partition's spill run.
func (jc *joinCore) ensureRun(ctx *Context, pattern string) error {
	if jc.run != nil {
		return nil
	}
	dir, err := ctx.SpillDir()
	if err != nil {
		return err
	}
	run, err := spill.NewRun(dir, pattern)
	if err != nil {
		return err
	}
	jc.run = run
	return nil
}

// writeTables appends both side tables to the run and resets them. The
// caller owns boundary bookkeeping and byte accounting.
func (jc *joinCore) writeTables() error {
	var rec spill.Record
	for s := range jc.tables {
		t := &jc.tables[s]
		rec.Side = uint8(s)
		for id := int32(0); id < int32(t.idx.Len()); id++ {
			rec.Hash = t.idx.Hash(id)
			rec.Key = t.idx.Key(id)
			for e := t.heads[id]; e != 0; {
				ent := &t.entries[e-1]
				rec.Seq = ent.seq
				rec.Tuple = t.rows[ent.ref]
				if err := jc.run.Append(&rec); err != nil {
					return err
				}
				e = ent.next
			}
		}
		jc.spilled[s] += t.tupBytes
		jc.tables[s] = joinTable{}
	}
	return nil
}

// evict is one bucket-discard: both side tables go to the run under a new
// epoch boundary, the memory is released, and both AIP points are marked
// state-incomplete (the in-memory state no longer summarizes the inputs).
func (jc *joinCore) evict(ctx *Context, ops [2]*stats.OpStats, points [2]*Point) error {
	if err := jc.ensureRun(ctx, "join"); err != nil {
		return err
	}
	pre := jc.run.Bytes()
	for s := range jc.tables {
		ops[s].StateBytes.Add(-jc.tables[s].memBytes())
	}
	if err := jc.writeTables(); err != nil {
		return err
	}
	if err := jc.run.Flush(); err != nil {
		return err
	}
	jc.boundaries = append(jc.boundaries, jc.ticket)
	ctx.account(-jc.bytes)
	jc.bytes = 0
	n := jc.run.Bytes() - pre
	ctx.noteSpill(n)
	ops[0].SpillBytes.Add(n)
	ops[0].SpillEvents.Inc()
	for _, p := range points {
		if p != nil {
			p.stateIncomplete.Store(true)
		}
	}
	return nil
}

// spillArrivals appends one scatter straight to the run under the current
// epoch: the partition has spilled, so these post-short-circuit arrivals may
// still match evicted other-side entries in the merge. Their in-memory
// matches were already emitted by the caller's phase-1 probe.
func (jc *joinCore) spillArrivals(sb *scatter, base uint64) error {
	var rec spill.Record
	rec.Side = uint8(sb.side)
	for i := range sb.hashes {
		rec.Seq = base + uint64(i) + 1
		rec.Hash = sb.hashes[i]
		rec.Key = sb.key(i)
		rec.Tuple = sb.tuple(i)
		if err := jc.run.Append(&rec); err != nil {
			return err
		}
	}
	// Count toward the side's spilled payload: the merge sizes its build
	// table and fan-out from these totals, and these records land in the
	// run just like evicted entries do.
	jc.spilled[sb.side] += sb.memSize()
	return nil
}

// mergeSpill drains a spilled partition after input-done, emitting exactly
// the cross-epoch match pairs phase 1 could not see, gathered through g.
// emit receives dense or selection-carrying batches ready to send downstream
// (residual already applied) and reports false on cancellation. mergeSpill returns false when
// the query failed or was cancelled; it closes and removes the run either
// way. Callers pass their own compiled residual (expr.Compiled carries
// scratch and is not concurrency-safe).
func (jc *joinCore) mergeSpill(ctx *Context, ops [2]*stats.OpStats, opName string, g *rowGather, resC *expr.Compiled, emit func(Batch) bool) bool {
	if jc.run == nil {
		return true
	}
	defer func() {
		jc.run.Close()
		jc.run = nil
	}()

	// Flush the in-memory remainder under the final epoch (no new boundary:
	// these entries share their epoch with any post-short-circuit arrivals
	// already appended, whose phase-1 probes saw them in memory).
	pre := jc.run.Bytes()
	for s := range jc.tables {
		ops[s].StateBytes.Add(-jc.tables[s].memBytes())
	}
	if err := jc.writeTables(); err != nil {
		ctx.CancelCause(err)
		return false
	}
	if err := jc.run.Flush(); err != nil {
		ctx.CancelCause(err)
		return false
	}
	ctx.account(-jc.bytes)
	jc.bytes = 0
	if n := jc.run.Bytes() - pre; n > 0 {
		ctx.spillBytes.Add(n)
		ops[0].SpillBytes.Add(n)
	}

	// Build over the side that spilled fewer payload bytes, fanned out into
	// F hash sub-buckets sized so one rebuilt table (~2x payload, counting
	// index and chain overhead) fits the merge share.
	build := 0
	if jc.spilled[1] < jc.spilled[0] {
		build = 1
	}
	share := ctx.mergeShare()
	F := 1
	for F < spillMaxFanout && 2*jc.spilled[build]/int64(F) > share {
		F <<= 1
	}
	if 2*jc.spilled[build]/int64(F) > share {
		need := jc.spilled[build]/8 + 1 // budget/4/64*2 >= spilled ⇒ budget >= spilled/8
		ctx.CancelCause(&BudgetError{Op: opName, Budget: ctx.MemBudget, Need: need})
		return false
	}

	buildIsLeft := build == 0
	probe := 1 - build
	outBatch := GetBatch()
	flush := func() bool {
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
		if !emit(outBatch) {
			outBatch = Batch{}
			return false
		}
		outBatch = GetBatch()
		return true
	}
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
		// Pass 1: build this sub-bucket's table from the build side. The
		// sub-bucket selector uses middle hash bits — the top bits picked the
		// partition and the low bits index the KeyTable's slots.
		var bt joinTable
		rd, err := jc.run.Reader()
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
			if int(rec.Side) != build || int((rec.Hash>>32)&uint64(F-1)) != f {
				continue
			}
			bt.insert(rec.Hash, rec.Key, rec.Tuple, rec.Seq)
		}
		rd.Close()
		passBytes := bt.memBytes()
		ctx.account(passBytes)
		ops[build].StateBytes.Add(passBytes)

		// Pass 2: stream the probe side past it, emitting cross-epoch pairs.
		// Chains are walked directly (not probeID) because the epoch check
		// needs each entry's ticket, not just a ticket ceiling.
		rd, err = jc.run.Reader()
		if err == nil {
			for {
				var ok bool
				ok, err = rd.Next(&rec)
				if err != nil || !ok {
					break
				}
				if int(rec.Side) != probe || int((rec.Hash>>32)&uint64(F-1)) != f {
					continue
				}
				pe := epochOf(jc.boundaries, rec.Seq)
				id := bt.idx.Lookup(rec.Hash, rec.Key)
				if id < 0 {
					continue
				}
				for e := bt.heads[id]; e != 0; {
					ent := &bt.entries[e-1]
					if epochOf(jc.boundaries, ent.seq) != pe {
						l, r := rec.Tuple, bt.rows[ent.ref]
						if buildIsLeft {
							l, r = r, l
						}
						outBatch.Tuples = append(outBatch.Tuples, arena.gather(g, l, r))
						if len(outBatch.Tuples) == BatchSize && !flush() {
							rd.Close()
							ctx.account(-passBytes)
							ops[build].StateBytes.Add(-passBytes)
							return false
						}
					}
					e = ent.next
				}
			}
			rd.Close()
		}
		ctx.account(-passBytes)
		ops[build].StateBytes.Add(-passBytes)
		if err != nil {
			return fail(err)
		}
	}
	if !flush() {
		return false
	}
	PutBatch(outBatch)
	return true
}
