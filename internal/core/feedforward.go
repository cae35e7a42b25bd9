package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/filter"
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
// builds one working copy of each set incrementally (via the OnStore hook,
// called when a tuple is recorded by the operator); when its input
// completes, the working copy is published to the central AIP Registry as
// it stands, merged by bitwise intersection with previously published sets
// of the same class — blocked Bloom filters, or exact bitmaps where the
// class's producers carry a small enough integer domain (SummaryBloom) —
// and injected into every live interested operator.
type FeedForward struct {
	opts Options

	mu      sync.Mutex
	classes map[int]*classInfo
	points  []*exec.Point
	state   map[int]*ffClassState
}

// workingSet is one producer's AIP set for one class, built as the producer
// stores tuples: one summary of the class's kind — a blocked Bloom filter in
// the class geometry, a bitmap over the class domain, or under
// SummaryHashSet a hash set — allocated at the first store. Every partition
// worker of the producer writes into it at once: a Bloom filter or bitmap
// takes a key with a test and then an atomic OR, a hash set under its own
// lock. PointDone publishes it as it stands. discarded is flipped when
// interest drops to zero; in-flight writers observe it and stop cheaply.
//
// Memory: the summary is charged to FilterBytes and to the owning
// operator's FilterWorking gauge once, when allocated (a hash set's
// allocation is empty; it is charged by its final size at publication).
// bytes is that charge, released from the gauge when the set is published
// or dropped.
type workingSet struct {
	col  int         // state-schema column holding the attribute
	kind SummaryKind // Options.Kind
	// ci is the class: its Bloom geometry (bits, k), shared by the class's
	// sets so they intersect, or its bitmap domain.
	ci *classInfo

	discarded atomic.Bool
	bytes     atomic.Int64
	// sum is the summary, nil until the first store; outside flags a
	// stored value a bitmap cannot hold (addToSet), so the set is never
	// published.
	sum     atomic.Pointer[filter.Summary]
	outside atomic.Bool
}

// summary returns the working set's summary, allocating it on first use
// (classInfo.newSet); bytesAdded reports the allocation to the one caller
// whose copy was installed.
func (ws *workingSet) summary() (s filter.Summary, bytesAdded int) {
	if p := ws.sum.Load(); p != nil {
		return *p, 0
	}
	s = ws.ci.newSet(ws.kind, ws.ci.bitmap)
	if !ws.sum.CompareAndSwap(nil, &s) {
		return *ws.sum.Load(), 0
	}
	return s, s.SizeBytes()
}

// store adds t's attribute value to the working set (addToSet).
func (ws *workingSet) store(t types.Tuple) (bytesAdded int) {
	s, added := ws.summary()
	if !addToSet(s, t[ws.col]) {
		ws.outside.Store(true)
	}
	return added
}

// ffClassState is the AIP Registry entry for one attribute class.
type ffClassState struct {
	interest int // live consumer points
	working  map[*exec.Point]*workingSet
	merged   filter.Summary // intersection of the published Bloom filters or bitmaps
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
			ws := &workingSet{col: pr.col, ci: ci, kind: f.opts.Kind}
			st.working[pr.point] = ws
			producedBy[pr.point] = append(producedBy[pr.point], ws)
		}
	}

	for p, sets := range producedBy {
		sets := sets
		// A partitioned HashAgg or Distinct calls OnStore from all of its
		// partition workers at once; they share each working set, whose
		// summary takes concurrent adds. The key is encoded and hashed once
		// per (tuple, attribute); a bitmap takes the value without hashing.
		p := p
		p.OnStore = func(t types.Tuple) {
			if !p.StateComplete() {
				return // PointDone drops an incomplete input's sets unpublished
			}
			for _, ws := range sets {
				if ws.discarded.Load() {
					continue
				}
				if added := ws.store(t); added > 0 {
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
		if ws, ok := st.working[p]; ok {
			delete(st.working, p)
			ws.discarded.Store(true)
			// An incomplete input — a dead source degraded to a partial
			// result, a spilled state, or a join input that kept arriving
			// after its sibling completed, whose OnStore stopped storing
			// then — has a working set missing tuples; publishing it would
			// prune rows that belong in the answer. It is dropped
			// unpublished, and so is a bitmap that was handed a value it
			// cannot hold. Otherwise the working set covers every tuple that
			// passed the input's filters: a complete summary of the
			// subexpression, published as it stands (every store
			// happens-before PointDone). A producer that stored nothing
			// publishes an empty set.
			if p.StateComplete() && !ws.outside.Load() {
				sum, _ := ws.summary()
				f.publish(p, ci, st, sum, ws.bytes.Load())
			}
			releaseWorking(p, ws)
		}
		if consumes(ci, p) {
			st.interest--
			if st.interest <= 0 {
				// Nobody left to prune with these sets: discard them.
				// In-flight partition writers observe the flag and stop.
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
// operator's in-progress gauge once the set is published or dropped (a
// published summary is accounted to the operator by AddFilter).
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

// publish merges p's completed working set into the registry and
// (re-)injects the result; charged is what the working set already charged
// to FilterBytes. A Bloom filter or bitmap is this producer's own and not
// yet visible to any probe, so its intersection with the class's earlier
// sets is taken in place, word by word, and costs no allocation; both cover
// the class's geometry or domain, so the intersection cannot fail. It then
// replaces the class's set at every live consumer. A hash set is attached
// beside the earlier ones, once per consumer. Caller holds f.mu, which a
// shipment to a remote consumer releases (Options.attach).
func (f *FeedForward) publish(p *exec.Point, ci *classInfo, st *ffClassState, sum filter.Summary, charged int64) {
	f.opts.made(p.Op, sum, charged)
	switch s := sum.(type) {
	case *filter.Bitmap:
		if prev, ok := st.merged.(*filter.Bitmap); ok {
			_ = s.IntersectWith(prev)
		}
	case filter.Blocked:
		if prev, ok := st.merged.(filter.Blocked); ok {
			_ = s.F.IntersectWith(prev.F)
		}
	case *filter.HashSet:
		seen := map[*exec.Point]bool{}
		for _, co := range ci.consumers {
			if !co.point.Done() && !seen[co.point] {
				seen[co.point] = true
				f.opts.attach(&f.mu, p.Site, co, s, nil)
			}
		}
		return
	}
	st.merged = sum
	for _, co := range ci.consumers {
		if co.point.Done() {
			continue
		}
		if f.opts.attach(&f.mu, p.Site, co, sum, func() filter.Summary { return st.attached[co.point] }) {
			st.attached[co.point] = sum
		}
	}
}
