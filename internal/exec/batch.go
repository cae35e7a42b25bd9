package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// Batches flow through single-consumer channels, so each batch has exactly
// one owner at a time: the producer owns it until send, the consumer owns it
// after receive. Consumers return exhausted batches with PutBatch once they
// no longer reference the slices (the Tuples inside may be retained — they
// are independent of the Batch backing arrays).
//
// A batch may carry a selection vector (Sel): the ascending lane indices of
// Tuples that are live. Filtering operators narrow Sel instead of copying
// survivors into a fresh batch; every consumer must iterate live lanes only
// (Live returns them uniformly). Materializing operators — Project, the
// join's row builder, aggregation — emit dense batches (Sel == nil), so a
// selection never survives past the next materialization point. Both the
// tuple slice and the selection vector are owned by the batch and recycled
// together by PutBatch.
//
// Slices can't go into a sync.Pool without boxing; to keep the Get/Put
// cycle allocation-free the empty boxes are recycled through a second pool
// instead of being reallocated on every Put.
type batchBox struct{ b []types.Tuple }

var batchPool = sync.Pool{
	New: func() any {
		return &batchBox{b: make([]types.Tuple, 0, BatchSize)}
	},
}

var boxPool = sync.Pool{New: func() any { return new(batchBox) }}

// GetBatch returns an empty dense batch with BatchSize tuple capacity from
// the pool.
func GetBatch() Batch {
	bb := batchPool.Get().(*batchBox)
	b := bb.b[:0]
	bb.b = nil
	boxPool.Put(bb)
	return Batch{Tuples: b}
}

// PutBatch recycles a batch's tuple slice and selection vector. The caller
// must not use either afterwards. Tuple references are cleared so recycled
// batches do not pin row memory.
func PutBatch(b Batch) {
	if b.Sel != nil {
		putSel(b.Sel)
	}
	t := b.Tuples
	if cap(t) < BatchSize {
		return // undersized one-off, let the GC have it
	}
	t = t[:cap(t)]
	for i := range t {
		t[i] = nil
	}
	bb := boxPool.Get().(*batchBox)
	bb.b = t[:0]
	batchPool.Put(bb)
}

// selBox recycles selection vectors — a scan chunk long, which the root's
// row-id batches need — the same way batchBox recycles tuple slices.
type selBox struct{ s []int32 }

var selPool = sync.Pool{
	New: func() any { return &selBox{s: make([]int32, 0, scanChunkRows)} },
}

var selBoxPool = sync.Pool{New: func() any { return new(selBox) }}

// getSel returns an empty selection vector with scanChunkRows capacity.
func getSel() []int32 {
	sb := selPool.Get().(*selBox)
	s := sb.s[:0]
	sb.s = nil
	selBoxPool.Put(sb)
	return s
}

// putSel recycles a selection vector.
func putSel(s []int32) {
	if cap(s) < BatchSize {
		return
	}
	sb := selBoxPool.Get().(*selBox)
	sb.s = s[:0]
	selPool.Put(sb)
}

// identTab is the shared identity selection [0, scanChunkRows), long enough
// for a scan chunk; Live hands out prefixes of it for dense batches.
// Read-only: callers must never write through a selection they did not
// allocate.
var identTab = func() []int32 {
	s := make([]int32, scanChunkRows)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// identSel returns the identity selection [0, n). For n ≤ scanChunkRows the
// shared read-only table is returned; oversized batches (rare) allocate.
func identSel(n int) []int32 {
	if n <= len(identTab) {
		return identTab[:n]
	}
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// resize sizes a lane-indexed scratch vector to n lanes, reusing the backing
// array when it is large enough.
func resize[T any](v []T, n int) []T {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]T, n)
}

// rowSource is a base table addressed by row id, with TableVectors.RowBytes
// alongside so that charging a buffered row never touches it.
type rowSource struct {
	rows  []types.Tuple
	fixed int64   // Tuple.MemSize of every row, when > 0
	sizes []int32 // Tuple.MemSize per row otherwise
}

// scatter is a pooled buffer carrying the tuples of one input batch (or scan
// chunk) that route to one partition of a partitioned operator, together
// with their keys, each hashed once by the route so the receiving worker
// never re-encodes or re-hashes: tuple headers from a router, row ids into
// src from a routing scan, and each key in one of two forms — words when the
// key values are all integer-backed, canonical bytes otherwise. One scatter
// holds one form. Like batches, a scatter has exactly one owner: the route
// owns it until the channel send, the partition worker owns it after
// receive and recycles it with putScatter.
type scatter struct {
	side   int           // producing input (join: 0 = left, 1 = right)
	tuples []types.Tuple // routed tuples, in arrival order; empty when rids carries them
	src    *rowSource    // with rids: the table they index
	rids   []int32       // routed rows of src, in arrival order
	hashes []uint64      // per tuple: Hash64 of its canonical key
	// Byte keys: offs[i]:offs[i+1] bound key i's canonical encoding in keys;
	// len(offs) = len(hashes)+1.
	offs []int32
	keys []byte
	// Word keys (nk > 0): words[i*nk:(i+1)*nk] are key i's column values, all
	// integer-backed, which encode as types.AppendIntKeys.
	words []int64
	nk    int
	kbuf  []byte // key's encoding of a word key
	// ranged: a one-column word key's column spans [lo, hi], which the
	// receiving table may index directly (types.KeyTable.Range).
	lo, hi int64
	ranged bool
}

var scatterPool = sync.Pool{New: func() any {
	return &scatter{offs: make([]int32, 1, BatchSize+1)}
}}

// getScatter returns an empty scatter buffer from the pool.
func getScatter(side int) *scatter {
	s := scatterPool.Get().(*scatter)
	s.side = side
	return s
}

// putScatter recycles a scatter buffer; tuple references are cleared so
// recycled buffers do not pin row memory.
func putScatter(s *scatter) {
	s.reset()
	scatterPool.Put(s)
}

// reset empties the scatter, keeping its buffers.
func (s *scatter) reset() {
	for i := range s.tuples {
		s.tuples[i] = nil
	}
	s.tuples = s.tuples[:0]
	s.src, s.rids = nil, s.rids[:0]
	s.hashes = s.hashes[:0]
	s.offs = s.offs[:1]
	s.keys = s.keys[:0]
	s.words, s.nk, s.ranged = s.words[:0], 0, false
}

// add appends one routed tuple with its key hash and bytes (copied).
func (s *scatter) add(t types.Tuple, h uint64, key []byte) {
	s.tuples = append(s.tuples, t)
	s.hashes = append(s.hashes, h)
	s.keys = append(s.keys, key...)
	s.offs = append(s.offs, int32(len(s.keys)))
}

// addWords appends one routed tuple with its key hash and words (copied).
func (s *scatter) addWords(t types.Tuple, h uint64, w []int64) {
	s.tuples = append(s.tuples, t)
	s.hashes = append(s.hashes, h)
	s.words = append(s.words, w...)
	s.nk = len(w)
}

// addRow appends row rid of src with its key hash and words (copied).
func (s *scatter) addRow(rid int32, h uint64, w []int64) {
	s.rids = append(s.rids, rid)
	s.hashes = append(s.hashes, h)
	for _, v := range w {
		s.words = append(s.words, v)
	}
	s.nk = len(w)
}

// intBacked reports whether values of kind k are integers (INT, DATE,
// BOOLEAN), whose canonical key encoding is types.AppendIntKey of the word.
func intBacked(k types.Kind) bool {
	return k == types.KindInt || k == types.KindDate || k == types.KindBool
}

func (s *scatter) len() int { return len(s.hashes) }

// tuple resolves routed tuple i.
func (s *scatter) tuple(i int) types.Tuple {
	if s.src != nil {
		return s.src.rows[s.rids[i]]
	}
	return s.tuples[i]
}

// memSize returns Σ Tuple.MemSize over the routed tuples.
func (s *scatter) memSize() (n int64) {
	if s.src != nil && s.src.fixed > 0 {
		return int64(len(s.rids)) * s.src.fixed
	}
	for _, t := range s.tuples {
		n += int64(t.MemSize())
	}
	for _, r := range s.rids {
		n += int64(s.src.sizes[r])
	}
	return n
}

// key returns the canonical key bytes of tuple i; a word key is encoded into
// the scatter's scratch, valid until the next call.
func (s *scatter) key(i int) []byte {
	if s.nk == 0 {
		return s.keys[s.offs[i]:s.offs[i+1]]
	}
	s.kbuf = types.AppendIntKeys(s.kbuf[:0], s.words[i*s.nk:(i+1)*s.nk])
	return s.kbuf
}

// insert resolves every key of the scatter in kt, adding the absent ones,
// through the batch kernel of the scatter's key form; a ranged key column
// declares its range to kt.
func (s *scatter) insert(kt *types.KeyTable, ids []int32, added []bool) {
	if s.ranged {
		kt.Range(s.lo, s.hi)
	}
	if s.nk > 0 {
		kt.InsertWords(s.hashes, s.words, s.nk, ids, added)
	} else {
		kt.InsertBatch(s.hashes, s.keys, s.offs, ids, added)
	}
}

// lookup is insert without adding: an absent key's id is -1.
func (s *scatter) lookup(kt *types.KeyTable, ids []int32) {
	if s.nk > 0 {
		kt.LookupWords(s.hashes, s.words, s.nk, ids)
	} else {
		kt.LookupBatch(s.hashes, s.keys, s.offs, ids)
	}
}

// lookupTagged is lookup in a table whose hash tags are tags
// (KeyTable.HashTags; nil: none): a word lane whose tag bit is clear is
// absent without a probe, and the rest are looked up one at a time.
func (s *scatter) lookupTagged(kt *types.KeyTable, tags *[16]uint64, ids []int32) {
	if tags == nil || s.nk == 0 {
		s.lookup(kt, ids)
		return
	}
	for i, h := range s.hashes {
		if ids[i] = -1; tags[h>>6&15]>>(h&63)&1 != 0 {
			kt.LookupWords(s.hashes[i:i+1], s.words[i*s.nk:(i+1)*s.nk], s.nk, ids[i:i+1])
		}
	}
}

// inputRoute is the lock-free phase of one input of a partitioned operator —
// AIP probe, key, scatter to the partition workers — and where it reports.
// One per producer goroutine: a routing scan's chunk workers (routingScan)
// each drive a fork per chunk, from the column vectors, and a router
// goroutine (drive) per input batch. Both run the same order: the bank
// first, each filter hashing only its own columns (FilterBank.ProbeBatch),
// then each surviving lane keyed and hashed once, for its partition — a
// routing scan's as row ids with key words read from the vectors
// (routeRows), a router's as tuples with key words, or bytes when a batch's
// keys are not all integer-backed (routeTuples).
type inputRoute struct {
	keys  []int          // the input's key columns
	point *Point         // may be nil
	op    *stats.OpStats // the input's stats block
	// sibling, set for a join input, is the other input's done flag; a join
	// input's routed tuples feed point.OnStore (the working AIP set).
	sibling *atomic.Bool
	// equi: the keys are a join's, and a NULL key equals nothing, so a tuple
	// with one is dropped here (a routing scan's keys have vectors: no NULLs).
	equi bool
	// exprs, when set, are computed GROUP BY keys: a router evaluates them
	// once per batch (evalKeys), and keys then index the evaluated values.
	exprs []*expr.Compiled
	ecol  []types.Value // one expression's lane column
	erows []types.Value // the kept lanes' evaluated keys, a row of len(exprs) each
	etups []types.Tuple // per lane: its row of erows

	side  int
	shift uint
	// Set by a routing scan: the table its row ids index, the full-table
	// vectors of the key columns, in key order, and a one-column key's range.
	src     *rowSource
	keyVecs [][]int64
	lo, hi  int64
	ranged  bool
	words   []int64 // one key's words
	kbuf    []byte  // one key's canonical bytes
	outs    []chan *scatter
	bufs    []*scatter // per partition: the keyed tuples not yet delivered

	// inflight, when set (a join input's pending count), counts every
	// scatter delivered and not yet processed by its worker.
	inflight *atomic.Int64
	// done is called once when routing ends; complete is false when the
	// query was cancelled before the input was consumed in full.
	done func(complete bool)
	// source, set by a join, is the template of its probe at the source;
	// probe is this producer's copy once it has held for the sibling.
	source, probe *sourceProbe
	// await, set by a routing scan with a sibling wait (awaitStart), is that
	// sibling: hold keeps every delivery back until it has published, and
	// held is how long that took.
	await *Point
	held  time.Duration
}

// hold blocks until the awaited sibling has published, then probes at the
// source; false when the query was cancelled first. Nothing of the input
// was delivered before, so its side stores nothing.
func (r *inputRoute) hold(ctx *Context) bool {
	start := time.Now()
	select {
	case <-r.await.published:
	case <-ctx.cancel:
		return false
	}
	r.await, r.held = nil, time.Since(start)
	if r.source != nil {
		r.probe = r.source.fork()
	}
	return true
}

func newInputRoute(side, parallelism int, outs []chan *scatter) *inputRoute {
	return &inputRoute{side: side, shift: partShift(parallelism), outs: outs, bufs: make([]*scatter, len(outs))}
}

// buf returns the buffer of the partition the top bits of key hash h select,
// so equal keys always land in the same partition.
func (r *inputRoute) buf(h uint64) *scatter {
	p := int(h >> r.shift)
	if r.bufs[p] == nil {
		sb := getScatter(r.side)
		sb.src, sb.lo, sb.hi, sb.ranged = r.src, r.lo, r.hi, r.ranged
		r.bufs[p] = sb
	}
	return r.bufs[p]
}

// fork returns the route for one more producer goroutine of the input, with
// its own buffers and scratch.
func (r *inputRoute) fork() *inputRoute {
	f := *r
	f.bufs, f.words, f.kbuf = make([]*scatter, len(r.outs)), nil, nil
	return &f
}

// flush delivers the buffered scatters of at least min tuples (a routing scan
// carries smaller ones over to its next chunk) — to the probe at the source
// when it takes them — and with min 0 sends what that probe holds. Awaiting
// a sibling, it holds first; with min 0 even when it has nothing to deliver,
// so the input completes after the sibling. It reports false when the query
// was cancelled mid-delivery; the undelivered buffer is recycled.
func (r *inputRoute) flush(ctx *Context, min int) bool {
	for p, sb := range r.bufs {
		if sb == nil || sb.len() < min {
			continue
		}
		if r.await != nil && !r.hold(ctx) {
			return false
		}
		r.bufs[p] = nil
		if r.probe != nil && r.probe.take(p, sb) {
			putScatter(sb)
			if ctx.Err() != nil {
				return false
			}
			continue
		}
		if r.inflight != nil {
			r.inflight.Add(1)
		}
		select {
		case r.outs[p] <- sb:
		case <-ctx.Cancelled():
			if r.inflight != nil {
				r.inflight.Add(-1)
			}
			putScatter(sb)
			return false
		}
	}
	if min == 0 && r.await != nil && !r.hold(ctx) {
		return false
	}
	return min > 0 || r.probe == nil || r.probe.out.flush()
}

// drive is the router: it runs the route over every batch of in and
// delivers each batch's scatters before taking the next, so a scatter holds
// one key form. It reports through done as a routing scan does: complete
// when the input ended without a cancellation truncating it.
func (rt *inputRoute) drive(ctx *Context, in <-chan Batch) {
	complete := false
	defer func() { rt.done(complete) }()
	var sc ProbeScratch
	keep := getSel() // the lanes a batch keeps
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
	complete = ctx.Err() == nil
}

// lanes runs the live lanes of one batch through the phase and returns those
// it routed (out is scratch of capacity len(live)). A routing scan passes
// rid0 ≥ 0 — tuples are rows [rid0, rid0+len) of src — and has set keyVecs:
// the survivors go out as row ids with key words (routeRows), and no row is
// read unless OnStore wants it. A router passes rid0 = -1 (routeTuples).
func (rt *inputRoute) lanes(ctx *Context, sc *ProbeScratch, tuples []types.Tuple, live, out []int32, rid0 int32) []int32 {
	pt, kept := rt.point, live
	if pt != nil && pt.Bank.Len() > 0 {
		kept = pt.Bank.ProbeBatch(tuples, nil, live, out, sc)
		rt.op.Pruned.Add(int64(len(live) - len(kept)))
	} else if pt != nil && ctx.Ctl != nil { // rows a filter would arrive too late for
		rt.op.PreFilter.Add(int64(len(live)))
	}
	if pt != nil {
		pt.received.Add(int64(len(live)))
	}
	if rid0 >= 0 {
		rt.routeRows(kept, rid0)
	} else {
		kept = rt.routeTuples(tuples, kept, out)
	}
	// OnStore sees every tuple routed while the other input has not
	// completed, from each goroutine running the route. Once it has (or the
	// route holds for it), these tuples are dropped (§VI-A), spilled or
	// probed at the source, so the point's state no longer holds the whole
	// input: it is marked so here, and OnStore is not called, so no working
	// set is built to be dropped.
	if rt.sibling != nil && pt != nil && len(kept) > 0 {
		if rt.await != nil || rt.sibling.Load() {
			pt.stateIncomplete.Store(true)
		} else if pt.OnStore != nil {
			for _, l := range kept {
				pt.OnStore(tuples[l])
			}
		}
	}
	return kept
}

// routeRows buffers rows rid0+l (l in kept) of a routing scan's table for
// their keys' partitions, each key as words read from keyVecs: one column is
// hashed in registers and passed as a slice of its vector, several through
// rt.words.
func (rt *inputRoute) routeRows(kept []int32, rid0 int32) {
	if len(rt.keyVecs) == 1 {
		vec := rt.keyVecs[0]
		for _, l := range kept {
			rid := rid0 + l
			h := types.HashIntKey(vec[rid])
			rt.buf(h).addRow(rid, h, vec[rid:rid+1])
		}
		return
	}
	for _, l := range kept {
		rid := rid0 + l
		rt.words = rt.words[:0]
		for _, v := range rt.keyVecs {
			rt.words = append(rt.words, v[rid])
		}
		h := types.HashIntKeys(rt.words)
		rt.buf(h).addRow(rid, h, rt.words)
	}
}

// maxWordKey is the widest key that goes out as words: types.HashIntKeys
// encodes up to eight columns on the stack.
const maxWordKey = 8

// routeTuples buffers the kept lanes' tuples for their keys' partitions and
// returns the lanes routed, narrowed into out when an equi-join drops a lane
// with a NULL key. Each key is hashed once, for its partition: as words in
// registers when every kept lane's key values are integer-backed, else —
// for the whole batch — as canonical bytes, as is a key of no column (a
// global aggregate) or of more than maxWordKey. HashIntKeys equals Hash64
// of AppendIntKeys, so a key lands in the same partition in either form.
func (rt *inputRoute) routeTuples(tuples []types.Tuple, kept, out []int32) []int32 {
	kt := tuples // per lane: the tuple keys index
	if rt.exprs != nil {
		kt = rt.evalKeys(tuples, kept)
	}
	if rt.equi {
		out = out[:0]
		for _, l := range kept {
			if !kt[l].HasNull(rt.keys) {
				out = append(out, l)
			}
		}
		kept = out
	}
	if len(kept) == 0 {
		return kept
	}
	if wordKeys(kt, rt.keys, kept) {
		rt.op.WordBatches.Add(1)
		for _, l := range kept {
			rt.words = rt.words[:0]
			for _, c := range rt.keys {
				rt.words = append(rt.words, kt[l][c].I)
			}
			h := types.HashIntKeys(rt.words)
			rt.buf(h).addWords(tuples[l], h, rt.words)
		}
		return kept
	}
	rt.op.ByteBatches.Add(1)
	for _, l := range kept {
		rt.kbuf = kt[l].AppendKeyCols(rt.kbuf[:0], rt.keys)
		h := types.Hash64(rt.kbuf, 0)
		rt.buf(h).add(tuples[l], h, rt.kbuf)
	}
	return kept
}

// wordKeys reports whether the kept lanes' keys over cols go out as words:
// one to maxWordKey columns, every value integer-backed.
func wordKeys(kt []types.Tuple, cols []int, kept []int32) bool {
	if len(cols) == 0 || len(cols) > maxWordKey {
		return false
	}
	for _, l := range kept {
		for _, c := range cols {
			if !intBacked(kt[l][c].K) {
				return false
			}
		}
	}
	return true
}

// evalKeys evaluates the computed GROUP BY keys over the kept lanes, one
// vectorized pass per expression as Project does, and returns per lane its
// key row (read by keys = 0, 1, …), valid until the next call.
func (rt *inputRoute) evalKeys(tuples []types.Tuple, kept []int32) []types.Tuple {
	n, nk := len(tuples), len(rt.exprs)
	rt.erows, rt.etups = resize(rt.erows, n*nk), resize(rt.etups, n)
	for _, l := range kept {
		rt.etups[l] = rt.erows[int(l)*nk : int(l+1)*nk : int(l+1)*nk]
	}
	rt.ecol = resize(rt.ecol, n)
	for i, e := range rt.exprs {
		e.EvalBatch(tuples, kept, rt.ecol)
		for _, l := range kept {
			rt.etups[l][i] = rt.ecol[l]
		}
	}
	return rt.etups
}

// rowArena allocates output tuples in batch-sized blocks: one []types.Value
// allocation amortized over ~BatchSize rows instead of one per row. Rows are
// handed out as capacity-capped subslices, so they can escape downstream
// (and be retained indefinitely) while the arena keeps filling; when a block
// fills up the arena simply starts a new one and the GC tracks old blocks
// through the escaped rows. Not safe for concurrent use. A join's rows are
// as wide as its Out list (gather), not the sum of its inputs' widths, so a
// narrowed join fills a block with proportionally more rows.
//
// Retention caveat: a retained row pins its whole block. That is fine for
// dense retention (a join buffering most of an input) but operators that
// keep a sparse subset of arriving rows indefinitely must clone what they
// keep (Distinct clones; HashAgg copies its group keys), or real memory can
// exceed accounted state by up to the rows-per-block factor.
type rowArena struct {
	buf []types.Value
}

// alloc returns a zeroed row of width w.
func (a *rowArena) alloc(w int) types.Tuple {
	if cap(a.buf)-len(a.buf) < w {
		a.buf = make([]types.Value, 0, BatchSize*w)
	}
	start := len(a.buf)
	a.buf = a.buf[:start+w]
	return a.buf[start : start+w : start+w]
}

// gather builds the join output row of the pair (l, r) in the arena: g's
// columns of the two inputs, one copy per run.
func (a *rowArena) gather(g *rowGather, l, r types.Tuple) types.Tuple {
	row := a.alloc(g.width)
	for _, run := range g.runs {
		src := l
		if run.right {
			src = r
		}
		copy(row[run.dst:run.dst+run.n], src[run.src:])
	}
	return row
}

// rowGather is a join's Out list compiled into copy runs: maximal spans of
// consecutive columns of one input, so a join that emits everything copies
// each side in one run and a narrowed one copies a few short spans.
type rowGather struct {
	runs  []gatherRun
	width int // len(Out)
}

// gatherRun copies n columns from src of the left (or right) input to dst of
// the output row.
type gatherRun struct {
	right       bool
	src, dst, n int
}

// newRowGather compiles out, positions in the concatenation of a left input
// of width nl and the right input, into copy runs.
func newRowGather(out []int, nl int) rowGather {
	g := rowGather{width: len(out)}
	for dst, c := range out {
		right := c >= nl
		src := c
		if right {
			src -= nl
		}
		if k := len(g.runs) - 1; k >= 0 && g.runs[k].right == right && g.runs[k].src+g.runs[k].n == src {
			g.runs[k].n++
			continue
		}
		g.runs = append(g.runs, gatherRun{right: right, src: src, dst: dst, n: 1})
	}
	return g
}
