package exec

import (
	"runtime/debug"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// InlineMaxRows bounds the scan size eligible for inline execution. Beyond
// it the goroutine pipeline's backpressure matters more than its fixed
// cost, so the plan runs on the normal channel-connected operator tree.
const InlineMaxRows = 4096

// TryRunInline executes a small, linear, stateless plan — an optional
// Project over zero or more Filters over either one unpaced, undelayed Scan
// of at most InlineMaxRows rows, or a single HashJoin whose two inputs are
// both such Filter*/Scan chains — synchronously in the caller's goroutine,
// returning (rows, true). Plans with any other shape (deeper join trees,
// aggregation, distinct, ship, paced or delayed scans, big scans) return
// (nil, false) and must run through Op.Start, as does any plan running
// under an AIP controller: the controller's working-set and injection
// lifecycle lives on the pipelined operators.
//
// This is the point-query fast path: the goroutine pipeline costs a fixed
// ~10µs per query in goroutine spawns, channel buffers, and the garbage
// they feed the collector — more than executing a dimension-table point
// lookup (or a point lookup joined against a dimension table) itself.
// Per-operator stats are recorded under the same names as the pipelined
// path, so Result counters and -stats reports are identical.
func TryRunInline(ctx *Context, root Op) (rows []types.Tuple, ran bool) {
	// Inline execution runs in the caller's goroutine, outside Spawn's
	// recover: contain a panic here the same way, failing the query with a
	// typed error instead of unwinding into the caller.
	defer func() {
		if r := recover(); r != nil {
			ctx.CancelCause(&PanicError{Val: r, Stack: debug.Stack()})
			rows, ran = nil, true
		}
	}()
	op := root
	var proj *Project
	if p, ok := op.(*Project); ok {
		proj = p
		op = p.Child
	}
	// Filters, outermost first; execution applies them innermost first.
	var filters []*Filter
	for {
		f, ok := op.(*Filter)
		if !ok {
			break
		}
		filters = append(filters, f)
		op = f.Child
	}
	if j, ok := op.(*HashJoin); ok {
		return runInlineJoin(ctx, proj, filters, j)
	}
	scan, ok := inlineScan(op)
	if !ok {
		return nil, false
	}
	scanOp := ctx.Stats.NewOp("scan:" + scan.Name)
	return inlinePost(ctx, proj, filters, scan.Rows, scanOp), true
}

// inlineScan accepts a leaf eligible for inline execution: an unpaced,
// undelayed Scan of at most InlineMaxRows rows.
func inlineScan(op Op) (*Scan, bool) {
	scan, ok := op.(*Scan)
	if !ok || scan.Delay != nil || scan.BytesPerSec > 0 || len(scan.Rows) > InlineMaxRows {
		return nil, false
	}
	return scan, true
}

// inlineLeafShape accepts a join input of shape Filter* over an inline-able
// Scan, without recording any stats: shape validation must be side-effect
// free so a rejected plan runs pipelined with untouched counters.
func inlineLeafShape(op Op) (*Scan, []*Filter, bool) {
	var filters []*Filter
	for {
		f, ok := op.(*Filter)
		if !ok {
			break
		}
		filters = append(filters, f)
		op = f.Child
	}
	scan, ok := inlineScan(op)
	if !ok {
		return nil, nil, false
	}
	return scan, filters, true
}

// runInlineJoin executes Project? / Filter* / HashJoin(leaf, leaf)
// synchronously: both inputs are materialized through their filters, the
// smaller side is built into a hash table (the same joinTable the pipelined
// operator partitions), and the larger side probes it. The result set is
// identical to the symmetric pipelined join's — every match pair is emitted
// exactly once — just computed in build/probe order instead of by arrival.
func runInlineJoin(ctx *Context, proj *Project, above []*Filter, j *HashJoin) ([]types.Tuple, bool) {
	// An AIP controller expects the pipelined lifecycle (OnStore hooks,
	// PointDone publication); bypassing it would silently disable SIP.
	if ctx.Ctl != nil {
		return nil, false
	}
	lScan, lFilters, ok := inlineLeafShape(j.Left)
	if !ok {
		return nil, false
	}
	rScan, rFilters, ok := inlineLeafShape(j.Right)
	if !ok {
		return nil, false
	}

	left := inlinePost(ctx, nil, lFilters, lScan.Rows, ctx.Stats.NewOp("scan:"+lScan.Name))
	right := inlinePost(ctx, nil, rFilters, rScan.Rows, ctx.Stats.NewOp("scan:"+rScan.Name))

	lop, rop := j.newOps(ctx)
	lop.In.Add(int64(len(left)))
	rop.In.Add(int64(len(right)))

	// Build over the smaller side; matches are attributed to the probing
	// side's Out, mirroring the pipelined join where the later-arriving
	// tuple emits the pair.
	build, probe := left, right
	bKeys, pKeys := j.LKeys, j.RKeys
	bop, pop := lop, rop
	buildIsLeft := true
	if len(right) < len(left) {
		build, probe = right, left
		bKeys, pKeys = j.RKeys, j.LKeys
		bop, pop = rop, lop
		buildIsLeft = false
	}

	var jt joinTable
	jt.reserve(len(build), 0)
	var buf []byte
	var storedBytes int64
	for i, t := range build {
		if t.HasNull(bKeys) { // matches nothing (HashJoin drops it when routing)
			continue
		}
		buf = t.AppendKeyCols(buf[:0], bKeys)
		jt.insert(types.Hash64(buf, 0), buf, t, uint64(i+1))
		storedBytes += int64(t.MemSize())
	}
	bop.StateRows.Add(int64(len(jt.entries)))
	bop.StateBytes.Add(storedBytes)

	resC := expr.Compile(j.Residual) // nil residual compiles to nil
	maxSeq := uint64(len(build)) + 1 // every build ticket qualifies
	var (
		joined  []types.Tuple
		matches []types.Tuple
		arena   rowArena
	)
	for _, t := range probe {
		if t.HasNull(pKeys) {
			continue
		}
		buf = t.AppendKeyCols(buf[:0], pKeys)
		matches = jt.probe(types.Hash64(buf, 0), buf, maxSeq, matches[:0])
		for _, m := range matches {
			l, r := t, m
			if buildIsLeft {
				l, r = m, t
			}
			joined = append(joined, arena.gather(&j.gather, l, r))
		}
	}
	if resC != nil && len(joined) > 0 {
		sel := resC.EvalBool(joined, identSel(len(joined)), getSel())
		kept := joined[:0]
		for _, l := range sel {
			kept = append(kept, joined[l])
		}
		putSel(sel)
		joined = kept
	}
	pop.Out.Add(int64(len(joined)))

	return inlinePost(ctx, proj, above, joined, nil), true
}

// inlinePost applies a Filter chain (outermost first, as collected by shape
// parsing) and an optional Project to rows, chunk at a time, recording
// per-operator stats under the pipelined names. leafOp, when non-nil, is
// credited with the rows as its scan output.
func inlinePost(ctx *Context, proj *Project, filters []*Filter, rows []types.Tuple, leafOp *stats.OpStats) []types.Tuple {
	type inlineFilter struct {
		op   *stats.OpStats
		pred *expr.Compiled
	}
	fs := make([]inlineFilter, len(filters))
	for i := range filters {
		// Reverse so fs[0] is the filter nearest the leaf.
		f := filters[len(filters)-1-i]
		fs[i] = inlineFilter{op: ctx.Stats.NewOp("filter:" + f.Name), pred: expr.Compile(f.Pred)}
	}
	var (
		projOp   *stats.OpStats
		compiled []*expr.Compiled
		col      []types.Value
	)
	if proj != nil {
		projOp = ctx.Stats.NewOp("project:" + proj.Name)
		compiled = make([]*expr.Compiled, len(proj.Exprs))
		for i, e := range proj.Exprs {
			compiled[i] = expr.Compile(e)
		}
	}

	var out []types.Tuple
	for base := 0; base < len(rows); base += BatchSize {
		select {
		case <-ctx.Cancelled():
			return out
		default:
		}
		end := base + BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[base:end]
		if leafOp != nil {
			leafOp.In.Add(int64(len(chunk)))
			leafOp.Out.Add(int64(len(chunk)))
		}

		sel := identSel(len(chunk))
		for i := range fs {
			fs[i].op.In.Add(int64(len(sel)))
			if i == 0 {
				sel = fs[i].pred.EvalBool(chunk, sel, getSel())
			} else {
				sel = fs[i].pred.EvalBool(chunk, sel, sel)
			}
			fs[i].op.Out.Add(int64(len(sel)))
			if len(sel) == 0 {
				break
			}
		}
		if len(sel) == 0 {
			putSel(sel) // pool-owned: at least one filter ran
			continue
		}

		if proj == nil {
			for _, l := range sel {
				out = append(out, chunk[l])
			}
		} else {
			projOp.In.Add(int64(len(sel)))
			start := len(out)
			// One exactly-sized backing block per chunk (a point query
			// produces a handful of rows; an arena's BatchSize-row blocks
			// would allocate 100× the result).
			w := len(compiled)
			backing := make([]types.Value, len(sel)*w)
			for k := range sel {
				out = append(out, backing[k*w:(k+1)*w:(k+1)*w])
			}
			col = growVals(col, len(chunk))
			for j, c := range compiled {
				c.EvalBatch(chunk, sel, col)
				for k, lane := range sel {
					out[start+k][j] = col[lane]
				}
			}
			projOp.Out.Add(int64(len(sel)))
		}
		if len(fs) > 0 {
			putSel(sel)
		}
	}
	return out
}
