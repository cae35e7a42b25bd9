package exec

import (
	"sync"

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

// growVals resizes a lane-indexed scratch vector to n lanes, reusing the
// backing array when possible.
func growVals(v []types.Value, n int) []types.Value {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]types.Value, n)
}

// growU64 and growI32 are growVals for the hash and selection scratch of
// the batch probe kernels.
func growU64(v []uint64, n int) []uint64 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]uint64, n)
}

func growI32(v []int32, n int) []int32 {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]int32, n)
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
// with their hash-once keys so the receiving worker never re-encodes or
// re-hashes: headers and canonical key bytes from a router, row ids into src
// and key words from a routing scan. Like batches, a scatter has exactly one
// owner: the router owns it until the channel send, the partition worker
// owns it after receive and recycles it with putScatter.
type scatter struct {
	side   int           // producing input (join: 0 = left, 1 = right)
	tuples []types.Tuple // routed tuples, in arrival order; empty when rids carries them
	src    *rowSource    // with rids: the table they index
	rids   []int32       // routed rows of src, in arrival order
	hashes []uint64      // per tuple: Hash64 of its canonical key
	// A router's keys: offs[i]:offs[i+1] bound key i's canonical encoding in
	// keys; len(offs) = len(hashes)+1.
	offs []int32
	keys []byte
	// A routing scan's keys (nk > 0): words[i*nk:(i+1)*nk] are key i's column
	// values, all integer-backed, which encode as types.AppendIntKeys.
	words []int64
	nk    int
	kbuf  []byte // key's encoding of a word key
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
	for i := range s.tuples {
		s.tuples[i] = nil
	}
	s.tuples = s.tuples[:0]
	s.src, s.rids = nil, s.rids[:0]
	s.hashes = s.hashes[:0]
	s.offs = s.offs[:1]
	s.keys = s.keys[:0]
	s.words, s.nk = s.words[:0], 0
	scatterPool.Put(s)
}

// add appends one routed tuple with its precomputed hash and key bytes
// (copied, so the caller's hasher scratch can be reused immediately).
func (s *scatter) add(t types.Tuple, h uint64, key []byte) {
	s.tuples = append(s.tuples, t)
	s.hashes = append(s.hashes, h)
	s.keys = append(s.keys, key...)
	s.offs = append(s.offs, int32(len(s.keys)))
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
// through the batch kernel of the scatter's key form.
func (s *scatter) insert(kt *types.KeyTable, ids []int32, added []bool) {
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

// inputRoute is the lock-free phase of one input of a partitioned operator —
// AIP probe, hash-once key encoding, scatter to the partition workers — and
// where it reports. One per producer goroutine: a router drives it per input
// batch, a routing scan (routingScan) per chunk, from the column vectors.
type inputRoute struct {
	keys  []int          // the input's key columns
	point *Point         // may be nil
	op    *stats.OpStats // the input's stats block
	store bool           // routed tuples feed point.OnStore (the join's working AIP set)
	// equi: the keys are a join's, and a NULL key equals nothing, so a tuple
	// with one is dropped here (a routing scan's keys have vectors: no NULLs).
	equi bool

	side  int
	shift uint
	// Set by a routing scan: the table its row ids index, and the full-table
	// vectors of the key columns, in key order.
	src     *rowSource
	keyVecs [][]int64
	words   []int64 // routeRows' scratch for a key of several columns
	outs    []chan *scatter
	bufs    []*scatter // per partition: the hashed tuples not yet delivered

	// beforeSend/onCancel (either may be nil) bracket each delivery attempt:
	// the join counts in-flight messages there.
	beforeSend, onCancel func()
	// done is called once when routing ends; complete is false when the
	// query was cancelled before the input was consumed in full.
	done func(complete bool)
}

func newInputRoute(side, parallelism int, outs []chan *scatter) *inputRoute {
	return &inputRoute{side: side, shift: partShift(parallelism), outs: outs, bufs: make([]*scatter, len(outs))}
}

// buf returns the buffer of the partition the top bits of key hash h select,
// so equal keys always land in the same partition.
func (r *inputRoute) buf(h uint64) *scatter {
	p := int(h >> r.shift)
	if r.bufs[p] == nil {
		r.bufs[p] = getScatter(r.side)
		r.bufs[p].src = r.src
	}
	return r.bufs[p]
}

// route buffers one tuple for its key's partition.
func (r *inputRoute) route(t types.Tuple, h uint64, key []byte) { r.buf(h).add(t, h, key) }

// flush delivers the buffered scatters of at least min tuples (a routing scan
// carries smaller ones over to its next chunk). It reports false when the
// query was cancelled mid-delivery; the undelivered buffer is recycled.
func (r *inputRoute) flush(ctx *Context, min int) bool {
	for p, sb := range r.bufs {
		if sb == nil || sb.len() < min {
			continue
		}
		r.bufs[p] = nil
		if r.beforeSend != nil {
			r.beforeSend()
		}
		select {
		case r.outs[p] <- sb:
		case <-ctx.Cancelled():
			if r.onCancel != nil {
				r.onCancel()
			}
			putScatter(sb)
			return false
		}
	}
	return true
}

// lanes runs the live lanes of one batch through the phase and returns those
// it routed (out is scratch of capacity len(live)). A routing scan passes
// rid0 ≥ 0 — tuples are rows [rid0, rid0+len) of src — and has set keyVecs:
// filters hash their own columns from the vectors, the survivors go out as
// row ids with key words (routeRows), and no row is read unless OnStore
// wants it.
func (rt *inputRoute) lanes(ctx *Context, sc *ProbeScratch, tuples []types.Tuple, live, out []int32, rid0 int32) []int32 {
	pt, kept, keys, scan := rt.point, live, rt.keys, rid0 >= 0
	if scan {
		keys = nil // filters hash their own columns; routeRows hashes the survivors
	}
	if pt != nil && pt.Bank.Len() > 0 {
		kept = pt.Bank.ProbeBatch(tuples, keys, live, out, sc)
		rt.op.Pruned.Add(int64(len(live) - len(kept)))
	} else {
		if !scan {
			sc.compute(tuples, keys, live)
		}
		if pt != nil && ctx.Ctl != nil { // rows a filter would arrive too late for
			rt.op.PreFilter.Add(int64(len(live)))
		}
	}
	if pt != nil {
		pt.received.Add(int64(len(live)))
	}
	// The working AIP set covers every tuple that passed the filters, whether
	// or not a worker buffers it (Feed-Forward publishes it as a complete
	// summary of the input). The route's driver is the point's only OnStore
	// caller, so it owns working-set slot 0.
	store := rt.store && pt != nil && pt.OnStore != nil
	if scan {
		rt.routeRows(kept, rid0)
	}
	for _, l := range kept {
		if !scan {
			if rt.equi && tuples[l].HasNull(rt.keys) {
				continue
			}
			rt.route(tuples[l], sc.hashes[l], sc.key(l))
		}
		if store {
			pt.OnStore(0, tuples[l])
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
		n := BatchSize * w
		if n < w {
			n = w
		}
		a.buf = make([]types.Value, 0, n)
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
