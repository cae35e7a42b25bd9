package exec

import (
	"fmt"
	"sort"

	"repro/internal/expr"
	"repro/internal/spill"
	"repro/internal/stats"
	"repro/internal/types"
)

// Bucket-discard spill for the symmetric hash join, through the joinCore
// embedded in its partition struct.
//
// # Eviction
//
// When a partition's accounted state crosses its share of the query budget
// (Context.memPressure), the whole partition — both side tables together —
// is serialized to its spill runs, one per side, and the memory reclaimed.
// The partition's ticket clock at each eviction is recorded as an epoch
// boundary: an entry's epoch is the number of boundaries smaller than its
// ticket, so two entries share an epoch exactly when they were co-resident in
// memory (both sides are always evicted together). Evicting invalidates the
// in-memory state as an input summary, so both AIP points are marked
// state-incomplete.
//
// # Exactly-once across phases
//
// Phase 1 (arrival-driven probing) emits precisely the match pairs whose two
// members were co-resident — same epoch. The merge phase re-scans the runs
// and emits only pairs whose epochs differ. The union is every match pair;
// the intersection is empty; each pair is considered exactly once in the
// merge because its members sit on opposite sides. The §VI-A short-circuit
// changes shape on a spilled partition: a tuple arriving after the other
// input completed may still match evicted entries, so instead of being
// dropped it is appended to its side's run under the current epoch (its
// in-memory matches were already emitted by its phase-1 probe, and they
// flush under the same epoch, so the merge skips them).
//
// # Merge
//
// After both inputs are done, each spilled partition writes its in-memory
// remainder (final epoch) and is drained as a plain hash join over the runs:
// the side that spilled fewer payload bytes is built, fanned out into F hash
// sub-buckets so one build table fits the merge share (Context.mergeFanout),
// and the other side's run streams past it. F is capped at spillMaxFanout; a
// budget too small for even the maximum fan-out fails the query with a typed
// *BudgetError instead of thrashing.
//
// A pass reads only its own side's run, and reads record headers first
// (spill.Reader.NextKey): a record of another sub-bucket, or a probe record
// whose key the build table lacks, is skipped without decoding its values.
// Build tuples are decoded into a per-pass arena; a probe tuple only once it
// has a cross-epoch match. The entries of a side fed by a routing scan index
// the scanned table's rows, which stay resident for the whole query, so its
// records carry the row id (spill.Record.Ref) instead of the row, and the
// merge resolves them through the side's rowSource. Accounting is the
// same either way: an eviction releases the tables' charged bytes, and the
// rebuilt build table charges each tuple's MemSize, so the budget sees the
// same state whichever form the records take.

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
	tables  [2]joinTable // indexed by side
	ticket  uint64
	partMem // both tables' accounted bytes

	runs       [2]*spill.Run // per side; nil until the first eviction
	srcs       [2]*rowSource // per side fed by a routing scan: what its refs index
	boundaries []uint64      // ticket clock at each eviction, ascending
	spilled    [2]int64      // cumulative spilled tuple payload bytes per side
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

// writeTables appends each side table to its run, gives its footprint back
// to the side's StateBytes and resets it. A table over a routing scan's rows
// writes row ids, an own store the tuples. The caller owns boundary
// bookkeeping and the partition's bytes.
func (jc *joinCore) writeTables(ops [2]*stats.OpStats) error {
	var rec spill.Record
	for s := range jc.tables {
		t := &jc.tables[s]
		ops[s].StateBytes.Add(-t.memBytes())
		rec.Side = uint8(s)
		for id := int32(0); id < int32(t.idx.Len()); id++ {
			rec.Hash = t.idx.Hash(id)
			rec.Key = t.idx.Key(id)
			for e := t.heads[id]; e != 0; {
				ent := &t.entries[e-1]
				rec.Seq = ent.seq
				if t.own {
					rec.Ref, rec.Tuple = 0, t.rows[ent.ref]
				} else {
					rec.Ref, rec.Tuple = uint64(ent.ref)+1, nil
				}
				if err := jc.runs[s].Append(&rec); err != nil {
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

// evict is one bucket-discard: both side tables go to their runs under a new
// epoch boundary, the memory is released, and both AIP points are marked
// state-incomplete (the in-memory state no longer summarizes the inputs).
func (jc *joinCore) evict(ctx *Context, ops [2]*stats.OpStats, points [2]*Point) error {
	for s := range jc.runs {
		if err := ctx.ensureRun(&jc.runs[s], "join", ops[0]); err != nil {
			jc.closeRuns() // both or neither
			return err
		}
	}
	if err := jc.writeTables(ops); err != nil {
		return err
	}
	jc.boundaries = append(jc.boundaries, jc.ticket)
	jc.evicted(ctx, ops[0], points[:]...)
	return nil
}

// closeRuns closes and removes the partition's runs.
func (jc *joinCore) closeRuns() {
	for s, run := range jc.runs {
		if run != nil {
			run.Close()
			jc.runs[s] = nil
		}
	}
}

// spillArrivals appends one scatter straight to its side's run under the
// current epoch: the partition has spilled, so these post-short-circuit
// arrivals may still match evicted other-side entries in the merge. Their
// in-memory matches were already emitted by the caller's phase-1 probe.
func (jc *joinCore) spillArrivals(sb *scatter, base uint64) error {
	var rec spill.Record
	rec.Side = uint8(sb.side)
	for i := range sb.hashes {
		rec.Seq = base + uint64(i) + 1
		rec.Hash = sb.hashes[i]
		rec.Key = sb.key(i)
		if sb.src != nil {
			rec.Ref = uint64(sb.rids[i]) + 1
		} else {
			rec.Tuple = sb.tuples[i]
		}
		if err := jc.runs[sb.side].Append(&rec); err != nil {
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
// (residual already applied) and reports false on cancellation. mergeSpill
// returns false when the query failed or was cancelled; it closes and
// removes the runs either way. Callers pass their own compiled residual
// (expr.Compiled carries scratch and is not concurrency-safe).
func (jc *joinCore) mergeSpill(ctx *Context, ops [2]*stats.OpStats, opName string, g *rowGather, resC *expr.Compiled, emit func(Batch) bool) bool {
	if jc.runs[0] == nil {
		return true
	}
	defer func() {
		jc.closeRuns()
		jc.srcs = [2]*rowSource{}
	}()

	// Write the in-memory remainder under the final epoch (no new boundary:
	// these entries share their epoch with any post-short-circuit arrivals
	// already appended, whose phase-1 probes saw them in memory).
	if err := jc.writeTables(ops); err != nil {
		ctx.CancelCause(err)
		return false
	}
	jc.release(ctx)

	// Build over the side that spilled fewer payload bytes, fanned out into
	// F hash sub-buckets sized so one rebuilt table (~2x payload, counting
	// index and chain overhead) fits the merge share.
	build := 0
	if jc.spilled[1] < jc.spilled[0] {
		build = 1
	}
	F, _, fits := ctx.mergeFanout(jc.spilled[build])
	if !fits {
		need := jc.spilled[build]/8 + 1 // budget/4/64*2 >= spilled ⇒ budget >= spilled/8
		ctx.CancelCause(&BudgetError{Op: opName, Budget: ctx.MemBudget, Need: need})
		return false
	}

	out := joinOut{b: GetBatch(), resC: resC, send: emit}
	defer func() { PutBatch(out.b) }()
	fail := func(err error) bool {
		ctx.CancelCause(err)
		return false
	}
	var arena rowArena
	pair := func(b, p types.Tuple) bool {
		if build == 0 {
			return out.add(arena.gather(g, b, p))
		}
		return out.add(arena.gather(g, p, b))
	}

	var scratch types.Tuple // the probe tuple being matched
	for f := 0; f < F; f++ {
		if ctx.Err() != nil {
			return false
		}
		var bt joinTable
		var tuples rowArena // this pass's decoded build tuples
		err := readRun(jc.runs[build], ops[0], func(rd *spill.Reader) error {
			return jc.buildSub(rd, build, f, F, &bt, &tuples)
		})
		if err != nil {
			return fail(err)
		}
		unpass := ctx.chargePass(ops[build], bt.memBytes())
		sent := true
		err = readRun(jc.runs[1-build], ops[0], func(rd *spill.Reader) (err error) {
			sent, err = jc.probeSub(rd, 1-build, f, F, &bt, &scratch, pair)
			return err
		})
		unpass()
		if err != nil {
			return fail(err)
		}
		if !sent {
			return false
		}
	}
	return out.flush()
}

// buildSub rebuilds sub-bucket f of F of side s's run into bt, decoding
// tuple records into arena.
func (jc *joinCore) buildSub(rd *spill.Reader, s, f, F int, bt *joinTable, arena *rowArena) error {
	var rec spill.Record
	for {
		ok, err := nextIn(rd, &rec, f, F)
		if err != nil || !ok {
			return err
		}
		t, err := jc.resolve(rd, &rec, s, arena.alloc(rd.Width()))
		if err != nil {
			return err
		}
		bt.insert(rec.Hash, rec.Key, t, rec.Seq)
	}
}

// probeSub streams sub-bucket f of F of side s's run past bt and hands each
// cross-epoch match to pair (build tuple, probe tuple); a probe record is
// resolved, into *scratch, only once it has one. Chains are walked directly
// (not probeID) because the epoch check needs each entry's ticket, not just
// a ticket ceiling. It reports false when pair did (cancelled).
func (jc *joinCore) probeSub(rd *spill.Reader, s, f, F int, bt *joinTable, scratch *types.Tuple, pair func(build, probe types.Tuple) bool) (bool, error) {
	var rec spill.Record
	for {
		ok, err := nextIn(rd, &rec, f, F)
		if err != nil || !ok {
			return true, err
		}
		id := bt.idx.Lookup(rec.Hash, rec.Key)
		if id < 0 {
			continue
		}
		pe := epochOf(jc.boundaries, rec.Seq)
		var pt types.Tuple
		resolved := false
		for e := bt.heads[id]; e != 0; e = bt.entries[e-1].next {
			ent := &bt.entries[e-1]
			if epochOf(jc.boundaries, ent.seq) == pe {
				continue
			}
			if !resolved {
				*scratch = resize(*scratch, rd.Width())
				if pt, err = jc.resolve(rd, &rec, s, *scratch); err != nil {
					return false, err
				}
				resolved = true
			}
			if !pair(bt.rows[ent.ref], pt) {
				return false, nil
			}
		}
	}
}

// resolve returns the tuple of the record rd last returned on side s: a ref
// record's row of the side's table, or the values decoded into dst.
func (jc *joinCore) resolve(rd *spill.Reader, rec *spill.Record, s int, dst types.Tuple) (types.Tuple, error) {
	if rec.Ref == 0 {
		return dst, rd.DecodeTuple(dst)
	}
	if src := jc.srcs[s]; src != nil && rec.Ref <= uint64(len(src.rows)) {
		return src.rows[rec.Ref-1], nil
	}
	return nil, fmt.Errorf("exec: spilled row ref %d has no row on join side %d", rec.Ref, s)
}
