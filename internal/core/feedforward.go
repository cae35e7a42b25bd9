package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/types"
)

// FeedForward is the greedy feed-forward filtering strategy of §IV-A: it
// requires no runtime statistics and "optimistically creates and uses every
// potentially useful AIP set".
//
// Query initialization registers, for every stateful operator input, a
// candidate AIP set per produced attribute and interest in the sets of
// every transitively-equated attribute produced elsewhere; candidates
// without interested parties are dropped. During execution each operator
// builds a local working copy incrementally (via the OnStore hook, called
// when a tuple is recorded by the operator); when its input completes, the
// working copy is published to the central AIP Registry, merged by bitwise
// intersection with previously published sets of the same class — blocked
// Bloom filters, or exact bitmaps where the class's producers carry a small
// enough integer domain (SummaryBloom) — and injected into every live
// interested operator.
type FeedForward struct {
	opts Options

	mu      sync.Mutex
	classes map[int]*classInfo
	points  []*exec.Point
	state   map[int]*ffClassState
}

// workingSet is one producer's incrementally built AIP set. A Bloom or hash
// set is sharded by the executor's partition slots: OnStore(slot, t) feeds
// slot-private summaries (each slot has exactly one writer goroutine, so the
// per-tuple path takes no lock), and PointDone merges the slots —
// striped/replayed merge for Bloom partials, bucket union for hash sets —
// into the published summary. A bitmap class's set is one bitmap shared by
// the slots instead: a store sets its value's bit (test, then atomic OR)
// without hashing, and PointDone publishes that bitmap itself. discarded is
// flipped when interest drops to zero; in-flight writers observe it and stop
// cheaply.
//
// Memory: a Bloom slot holds a bloom.Partial — a size-doubling key-hash log
// that converts to lazily-allocated block stripes — so a producer running at
// partition fan-out P pays for what its slots actually saw, not P
// full-geometry copies; the exact merge into the class geometry happens
// once, at PointDone. Hash-set slots grow only with their content. A bitmap
// is allocated at the first store, span/8 bytes, never more than the
// class's Bloom filter. bytes tracks the working memory currently allocated,
// released from the owning operator's FilterWorking gauge when the set is
// merged, published or discarded.
type workingSet struct {
	class int
	col   int  // state-schema column holding the attribute
	exact bool // hash-set slots instead of Bloom slots
	// ci is the class: its Bloom geometry (bits, k), shared by every slot
	// so slots merge, or its bitmap domain.
	ci *classInfo

	discarded atomic.Bool
	bytes     atomic.Int64
	slots     [exec.MaxPartitions]atomic.Pointer[slotSet]

	// bm is a bitmap class's set (nil until the first store); outside
	// flags a stored value the bitmap cannot hold (addValue), so the set is
	// never published.
	bm      atomic.Pointer[filter.Bitmap]
	outside atomic.Bool
}

// bitmap returns the working bitmap, allocating it on first use; bytesAdded
// reports the allocation to the one caller whose copy was installed.
func (ws *workingSet) bitmap() (bm *filter.Bitmap, bytesAdded int) {
	if bm = ws.bm.Load(); bm != nil {
		return bm, 0
	}
	bm = ws.ci.newBitmap()
	if !ws.bm.CompareAndSwap(nil, bm) {
		return ws.bm.Load(), 0
	}
	return bm, bm.SizeBytes()
}

// storeBitmap adds t's attribute value to the working bitmap.
func (ws *workingSet) storeBitmap(t types.Tuple) (bytesAdded int) {
	bm, added := ws.bitmap()
	if !addValue(bm, t[ws.col]) {
		ws.outside.Store(true)
	}
	return added
}

// slotSet is one partition slot's private summary plus its key-encoding
// scratch. Only the owning partition goroutine touches it before the merge;
// the atomic slot pointer publishes it to the merger (every OnStore call
// happens-before PointDone). Exactly one of pb/hs is set, per the working
// set's summary kind.
type slotSet struct {
	pb  *bloom.Partial
	hs  *filter.HashSet
	buf []byte
}

// ffSlotBuckets is the bucket count of per-slot hash-set summaries; slots
// of one working set share it so they merge bucket-wise.
const ffSlotBuckets = 256

// slot returns the slot's summary, allocating it on first use by the
// owning goroutine. bytesAdded reports fresh Bloom allocations so the
// caller can account summary memory.
func (ws *workingSet) slot(i int) (ss *slotSet, bytesAdded int) {
	if ss = ws.slots[i].Load(); ss != nil {
		return ss, 0
	}
	ss = &slotSet{}
	if ws.exact {
		ss.hs = filter.NewHashSet(ffSlotBuckets)
	} else {
		ss.pb = bloom.NewPartial(ws.ci.bits, ws.ci.k, 0)
		bytesAdded = ss.pb.SizeBytes()
	}
	ws.slots[i].Store(ss)
	return ss, bytesAdded
}

// ffClassState is the AIP Registry entry for one attribute class.
type ffClassState struct {
	interest int // live consumer points
	working  map[*exec.Point]*workingSet
	merged   *bloom.Blocked // intersection of published Bloom sets
	mergedBm *filter.Bitmap // intersection of published bitmaps
	// attached tracks the summary currently injected per consumer point so
	// a stronger merge can replace it in place.
	attached map[*exec.Point]filter.Summary
}

// NewFeedForward creates the controller.
func NewFeedForward(opts Options) *FeedForward {
	return &FeedForward{opts: opts, state: map[int]*ffClassState{}}
}

// RegisterPoint records an injection point (query initialization).
func (f *FeedForward) RegisterPoint(p *exec.Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.points = append(f.points, p)
}

// Begin runs the registry analysis and installs the OnStore hooks that
// build the working AIP sets.
func (f *FeedForward) Begin() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.classes = analyze(f.points, f.opts.fpr(), f.opts.Kind)

	producedBy := map[*exec.Point][]*workingSet{}
	for id, ci := range f.classes {
		st := &ffClassState{
			working:  map[*exec.Point]*workingSet{},
			attached: map[*exec.Point]filter.Summary{},
		}
		f.state[id] = st
		seenConsumer := map[*exec.Point]bool{}
		for _, co := range ci.consumers {
			if !seenConsumer[co.point] {
				seenConsumer[co.point] = true
				st.interest++
			}
		}
		seenProducer := map[*exec.Point]bool{}
		for _, pr := range ci.producers {
			if seenProducer[pr.point] {
				continue
			}
			seenProducer[pr.point] = true
			ws := &workingSet{
				class: id, col: pr.col, ci: ci,
				exact: f.opts.Kind == SummaryHashSet,
			}
			st.working[pr.point] = ws
			producedBy[pr.point] = append(producedBy[pr.point], ws)
		}
	}

	for p, sets := range producedBy {
		sets := sets
		// The partitioned executor invokes OnStore from several partition
		// workers of the same point concurrently (HashAgg and Distinct call
		// it once per new group/tuple from every worker), but each call
		// carries its partition slot, and a slot has exactly one writer:
		// the hook feeds slot-private summaries without taking any lock,
		// and PointDone merges the slots. The key is still encoded and
		// hashed once per (tuple, attribute), then fed to the summary by
		// hash. A bitmap class's set is shared by the slots and takes the
		// value without hashing.
		p := p
		p.OnStore = func(slot int, t types.Tuple) {
			if !p.StateComplete() {
				return // PointDone drops an incomplete input's sets unpublished
			}
			for _, ws := range sets {
				if ws.discarded.Load() {
					continue
				}
				var added int
				if ws.ci.bitmap {
					added = ws.storeBitmap(t)
				} else {
					var ss *slotSet
					ss, added = ws.slot(slot)
					ss.buf = t[ws.col].AppendKey(ss.buf[:0])
					h := types.Hash64(ss.buf, 0)
					if ss.pb != nil {
						// The partial's log doubles and its stripes
						// allocate lazily; account the growth as it
						// happens so the working-set gauge tracks real
						// allocation, not the full class geometry.
						before := ss.pb.SizeBytes()
						ss.pb.AddHash(h)
						added += ss.pb.SizeBytes() - before
					} else {
						ss.hs.AddHash(h, ss.buf)
					}
				}
				if added > 0 {
					f.opts.Stats.FilterBytes.Add(int64(added))
					ws.bytes.Add(int64(added))
					if op := p.Op; op != nil {
						op.FilterWorking.Add(int64(added))
					}
				}
			}
		}
	}
}

// mergeSlots folds a retired working set's partition slots into one
// summary: stripe/replay merge of Bloom partials into one full-geometry
// blocked filter, bucket union for hash-set slots. A producer that stored
// nothing still yields an empty summary — a completed empty input
// legitimately prunes everything downstream. Exactly one return value is
// non-nil.
func (ws *workingSet) mergeSlots() (*bloom.Blocked, *filter.HashSet) {
	if ws.exact {
		var merged *filter.HashSet
		for i := range ws.slots {
			ss := ws.slots[i].Load()
			if ss == nil {
				continue
			}
			if merged == nil {
				merged = ss.hs
				continue
			}
			// Same bucket count by construction; the error path is a
			// safety net and keeps the slot's keys by swapping roles.
			if err := merged.MergeFrom(ss.hs); err != nil {
				merged = ss.hs
			}
		}
		if merged == nil {
			merged = filter.NewHashSet(ffSlotBuckets)
		}
		return nil, merged
	}
	// The full class geometry is allocated exactly once, here — this is the
	// moment P striped partials become one union-compatible filter.
	merged := bloom.NewBlockedWithGeometry(ws.ci.bits, ws.ci.k, 0)
	for i := range ws.slots {
		ss := ws.slots[i].Load()
		if ss == nil {
			continue
		}
		// Same geometry by construction; the error cannot fire.
		_ = ss.pb.MergeInto(merged)
	}
	return merged, nil
}

// PointDone publishes the completed input's working sets, injects them into
// interested operators, and retires the point's interest so unneeded
// working sets can be discarded (§IV-A, query execution).
func (f *FeedForward) PointDone(p *exec.Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, ci := range f.classes {
		st := f.state[id]
		if st == nil {
			continue
		}
		// An incomplete input — a dead source degraded to a partial result,
		// a spilled state, or a join input that kept arriving after its
		// sibling completed, whose OnStore stopped storing then — has a
		// working set missing tuples; publishing it would prune rows that
		// belong in the answer. Drop it unpublished — interest accounting
		// below still runs. So is a bitmap that was handed a value it
		// cannot hold.
		if ws, ok := st.working[p]; ok && (!p.StateComplete() || ws.outside.Load()) {
			delete(st.working, p)
			ws.discarded.Store(true)
			releaseWorking(p, ws)
		} else if ok {
			delete(st.working, p)
			ws.discarded.Store(true)
			// The working set covers every tuple that passed the input's
			// filters: a complete summary of the subexpression. The
			// partition slots are merged (striped merge for Bloom partials,
			// bucket union for hash sets) into the one summary that gets
			// published; slot writes happen-before PointDone, so the merge
			// needs no locks. A bitmap is published as it stands.
			if ci.bitmap {
				bm, added := ws.bitmap() // a producer that stored nothing publishes an empty set
				f.opts.Stats.FilterBytes.Add(int64(added))
				releaseWorking(p, ws)
				if op := p.Op; op != nil {
					op.AddFilter(stats.FilterBitmap, bm.SizeBytes())
				}
				f.publishBitmap(ci, st, bm)
			} else if bb, hs := ws.mergeSlots(); bb != nil {
				releaseWorking(p, ws)
				if op := p.Op; op != nil {
					op.AddFilter(stats.FilterBloom, bb.SizeBytes())
				}
				f.publishBloom(ci, st, bb)
			} else {
				releaseWorking(p, ws)
				f.opts.Stats.FiltersMade.Inc()
				f.opts.Stats.FilterBytes.Add(int64(hs.SizeBytes()))
				if op := p.Op; op != nil {
					op.AddFilter(stats.FilterHashSet, hs.SizeBytes())
				}
				f.attachAll(ci, st, hs)
			}
		}
		if consumes(ci, p) {
			st.interest--
			if st.interest <= 0 {
				// Nobody left to prune with these sets: discard them.
				// In-flight partition writers observe the flag and stop;
				// their slots are dropped with the working set.
				for q, ws := range st.working {
					ws.discarded.Store(true)
					delete(st.working, q)
					releaseWorking(q, ws)
				}
			}
		}
	}
}

// releaseWorking returns a retired working set's bytes to the owning
// operator's in-progress gauge: the slot memory is dead after a merge or
// discard (the published summary is accounted separately via FilterBytes).
func releaseWorking(p *exec.Point, ws *workingSet) {
	if op := p.Op; op != nil {
		if n := ws.bytes.Load(); n > 0 {
			op.FilterWorking.Add(-n)
		}
	}
}

func consumes(ci *classInfo, p *exec.Point) bool {
	for _, co := range ci.consumers {
		if co.point == p {
			return true
		}
	}
	return false
}

// publishBloom merges a completed Bloom working set into the registry and
// (re-)injects the merged summary into live consumers. The full-geometry
// filter was allocated by mergeSlots, so its bytes are charged here. Caller
// holds f.mu.
func (f *FeedForward) publishBloom(ci *classInfo, st *ffClassState, bb *bloom.Blocked) {
	f.opts.Stats.FiltersMade.Inc()
	f.opts.Stats.FilterBytes.Add(int64(bb.SizeBytes()))
	if st.merged == nil {
		st.merged = bb
	} else {
		next := st.merged.Clone()
		if err := next.IntersectWith(bb); err != nil {
			// Incompatible geometry (cannot happen with class-wide
			// sizing, kept as a safety net): attach separately.
			f.attachAll(ci, st, filter.Blocked{F: bb})
			return
		}
		st.merged = next
		f.opts.Stats.FilterBytes.Add(int64(next.SizeBytes()))
	}
	f.inject(ci, st, filter.Blocked{F: st.merged})
}

// publishBitmap merges a completed bitmap into the registry and
// (re-)injects the result. The new bitmap is this producer's own and not
// yet visible to any probe, so the intersection with the class's earlier
// sets is taken in place, word by word, and costs no allocation. Caller
// holds f.mu.
func (f *FeedForward) publishBitmap(ci *classInfo, st *ffClassState, bm *filter.Bitmap) {
	f.opts.Stats.FiltersMade.Inc()
	f.opts.Stats.FiltersBitmap.Inc()
	if st.mergedBm != nil {
		// Both cover the class's domain; the error cannot fire.
		_ = bm.IntersectWith(st.mergedBm)
	}
	st.mergedBm = bm
	f.inject(ci, st, bm)
}

// inject attaches the class's merged summary to every live consumer, in
// place of the one attached before. Caller holds f.mu.
func (f *FeedForward) inject(ci *classInfo, st *ffClassState, newSum filter.Summary) {
	for _, co := range ci.consumers {
		if co.point.Done() {
			continue
		}
		old := st.attached[co.point]
		if old == nil {
			co.point.Bank.Attach([]int{co.col}, newSum)
			f.opts.Stats.FiltersUsed.Inc()
		} else {
			co.point.Bank.Replace([]int{co.col}, old, newSum)
		}
		st.attached[co.point] = newSum
	}
}

// attachAll injects a summary into every live consumer of the class.
func (f *FeedForward) attachAll(ci *classInfo, st *ffClassState, sum filter.Summary) {
	seen := map[*exec.Point]bool{}
	for _, co := range ci.consumers {
		if co.point.Done() || seen[co.point] {
			continue
		}
		seen[co.point] = true
		co.point.Bank.Attach([]int{co.col}, sum)
		f.opts.Stats.FiltersUsed.Inc()
	}
}

// End is a no-op for Feed-Forward.
func (f *FeedForward) End() {}
