package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/types"
)

// attachedFilter is one injected semijoin: probe the summary with the key
// built from cols.
type attachedFilter struct {
	cols []int
	sum  filter.Summary
}

// FilterBank holds the semijoin filters injected into one operator input.
// Probes are lock-free (copy-on-write snapshot); attachment is rare.
type FilterBank struct {
	mu  sync.Mutex
	cur atomic.Pointer[[]attachedFilter]
}

// NewFilterBank returns an empty bank.
func NewFilterBank() *FilterBank {
	b := &FilterBank{}
	empty := []attachedFilter{}
	b.cur.Store(&empty)
	return b
}

// Attach injects a filter over the given input columns. Duplicate
// attachments of the same summary are ignored.
func (b *FilterBank) Attach(cols []int, sum filter.Summary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.cur.Load()
	for _, a := range old {
		if a.sum == sum && equalInts(a.cols, cols) {
			return
		}
	}
	next := make([]attachedFilter, len(old)+1)
	copy(next, old)
	next[len(old)] = attachedFilter{cols: append([]int(nil), cols...), sum: sum}
	b.store(next)
}

// Replace swaps out an existing summary for a strictly stronger one over
// the same columns (paper §IV-B: "in the case of a filter with strictly
// weaker constraints, directly replaced"). If the old summary is absent the
// new one is attached.
func (b *FilterBank) Replace(cols []int, oldSum, newSum filter.Summary) {
	b.mu.Lock()
	defer b.mu.Unlock()
	old := *b.cur.Load()
	next := make([]attachedFilter, 0, len(old)+1)
	replaced := false
	for _, a := range old {
		if a.sum == oldSum && equalInts(a.cols, cols) {
			next = append(next, attachedFilter{cols: a.cols, sum: newSum})
			replaced = true
			continue
		}
		next = append(next, a)
	}
	if !replaced {
		next = append(next, attachedFilter{cols: append([]int(nil), cols...), sum: newSum})
	}
	b.store(next)
}

// store publishes next as the probe order: the one-column bitmaps ahead of
// the hashed summaries, each group in attach order, so a mixed bank prunes
// with the hash-free kernel before any hash is computed.
func (b *FilterBank) store(next []attachedFilter) {
	slices.SortStableFunc(next, func(x, y attachedFilter) int { return x.rank() - y.rank() })
	b.cur.Store(&next)
}

// rank is the filter's place in the probe order: 0 for a one-column bitmap,
// which probes without a hash, 1 for any other.
func (a *attachedFilter) rank() int {
	if _, ok := a.sum.(*filter.Bitmap); ok && len(a.cols) == 1 {
		return 0
	}
	return 1
}

// Len returns the number of attached filters.
func (b *FilterBank) Len() int { return len(*b.cur.Load()) }

// Each calls fn with every attached filter's columns and summary, in probe
// order.
func (b *FilterBank) Each(fn func(cols []int, sum filter.Summary)) {
	for _, a := range *b.cur.Load() {
		fn(a.cols, a.sum)
	}
}

// ProbeScratch is the per-goroutine working state of FilterBank.ProbeBatch:
// the lane-indexed key hashes of the filter being probed, the keys they were
// computed from, and the reusable buffers behind them. All slices are reused
// across batches (zero allocations once warm) and invalidated by the next
// ProbeBatch on the same scratch.
type ProbeScratch struct {
	hashes []uint64

	// Byte keys: lane i's canonical encoding is keyBuf[starts[i]:ends[i]].
	starts, ends []int32
	keyBuf       []byte
	byteAt       func(int32) []byte // bound once to byteKey

	// Integer keys: lane i's one integer-backed key value is vec[i] — a
	// scan's column vector, or the tuples' values gathered into ints. Exact
	// summaries resolve its bytes through intKey, one transient encode into
	// intBuf per lane they ask about.
	vec    []int64
	ints   []int64
	intBuf []byte
	intAt  func(int32) []byte // bound once to intKey

	// Source-vector state, set by a base-table scan probing on behalf of its
	// consumer (scanWorker.chunk): vecs is the table's typed-vector view and
	// the batch being probed is table rows [vecLo, vecLo+len(tuples)). A
	// filter over one integer-backed column then reads the vector and never
	// dereferences a row.
	vecs  expr.ColumnVectors
	vecLo int

	runs int // bitmap probes that read every lane as a run (Bitmap.ProbeRun)
}

// intVec returns the listed lanes' integers of column c, lane-indexed: the
// scan's column vector, else the tuples' values gathered into sc.ints when
// every one of them is integer-backed, else nil.
func (sc *ProbeScratch) intVec(tuples []types.Tuple, c int, sel []int32) []int64 {
	if sc.vecs != nil {
		if vec, _ := sc.vecs.IntVec(c); vec != nil {
			return vec[sc.vecLo : sc.vecLo+len(tuples)]
		}
	}
	sc.ints = resize(sc.ints, len(tuples))
	for _, i := range sel {
		v := tuples[i][c]
		if !intBacked(v.K) {
			return nil
		}
		sc.ints[i] = v.I
	}
	return sc.ints
}

// hashCols hashes the listed lanes' keys over cols into sc.hashes and
// returns the resolver of their canonical key bytes: a one-column key whose
// integers vec holds (intVec) in registers, with no byte written, any other
// key from its canonical bytes, encoded once per lane.
func (sc *ProbeScratch) hashCols(tuples []types.Tuple, cols []int, sel []int32, vec []int64) func(int32) []byte {
	n := len(tuples)
	sc.hashes = resize(sc.hashes, n)
	if vec != nil {
		sc.vec = vec
		for _, i := range sel {
			sc.hashes[i] = types.HashIntKey(vec[i])
		}
		if sc.intAt == nil {
			sc.intAt = sc.intKey
		}
		return sc.intAt
	}
	sc.starts = resize(sc.starts, n)
	sc.ends = resize(sc.ends, n)
	sc.keyBuf = sc.keyBuf[:0]
	for _, i := range sel {
		start := len(sc.keyBuf)
		sc.keyBuf = tuples[i].AppendKeyCols(sc.keyBuf, cols)
		sc.hashes[i] = types.Hash64(sc.keyBuf[start:], 0)
		sc.starts[i] = int32(start)
		sc.ends[i] = int32(len(sc.keyBuf))
	}
	if sc.byteAt == nil {
		sc.byteAt = sc.byteKey
	}
	return sc.byteAt
}

func (sc *ProbeScratch) byteKey(i int32) []byte { return sc.keyBuf[sc.starts[i]:sc.ends[i]] }

// intKey encodes lane i's integer key; valid until the next call.
func (sc *ProbeScratch) intKey(i int32) []byte {
	sc.intBuf = types.AppendIntKey(sc.intBuf[:0], sc.vec[i])
	return sc.intBuf
}

// ProbeBatch runs the live lanes of a batch through every attached filter
// and returns the surviving selection, mirroring the expr kernels' Sel
// contract. sel lists the live lanes in ascending order; survivors are
// appended to out, which the caller owns and passes with length 0. out may
// share sel's backing array (out = sel[:0]) for in-place narrowing —
// implementations only append behind their read cursor — but must
// otherwise not overlap sel.
//
// Each filter keys only its own columns, and only for the lanes the filters
// before it kept. A one-column key comes from one of three sources: the
// scan's column vector, the tuples' integers (both read by a bitmap as they
// are, hashed in registers for any other summary), or — when a lane's value
// is not integer-backed — the canonical bytes of every lane, as is a key of
// several columns. keyCols is ignored: a caller that routes the survivors
// keys them itself, after the filters (inputRoute), so no lane a filter
// prunes is keyed for routing. A bitmap that sees every lane of the batch
// probes them as a run (Bitmap.ProbeRun), reading no selection. The caller
// must check Len() > 0 first; with no filters attached a probe would be a
// pointless copy.
func (b *FilterBank) ProbeBatch(tuples []types.Tuple, keyCols []int, sel []int32, out []int32, sc *ProbeScratch) []int32 {
	filters := *b.cur.Load()
	if len(filters) == 0 {
		return append(out, sel...)
	}
	live := sel
	out = out[:0]
	for i := range filters {
		if i > 0 {
			out = out[:0] // narrow in place, behind live's read cursor
		}
		f := &filters[i]
		var vec []int64
		if len(f.cols) == 1 {
			vec = sc.intVec(tuples, f.cols[0], live)
		}
		if bm, ok := f.sum.(*filter.Bitmap); ok && vec != nil && len(live) == len(tuples) {
			sc.runs++
			out = bm.ProbeRun(vec[:len(tuples)], out)
		} else if ok && vec != nil {
			out = bm.ProbeInts(vec, live, out)
		} else {
			keyAt := sc.hashCols(tuples, f.cols, live, vec)
			out = f.sum.MayContainHashBatch(sc.hashes, live, out, keyAt)
		}
		live = out
		if len(out) == 0 {
			break
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IntDomain is the value range [Lo, Hi] of the integer-backed base column a
// point column carries (catalog.Table.IntRange); Known is false when the
// column carries no such range.
type IntDomain struct {
	Lo, Hi int64
	Known  bool
}

// Point is one AIP injection point: an operator input that can consume
// injected semijoin filters and, when stateful, produce AIP sets from its
// buffered state. The physical planner creates points with plan metadata;
// the executor drives the runtime callbacks; the controllers in
// internal/core do the decision making.
type Point struct {
	ID   int
	Name string

	// EqIDs maps each input column to its attribute equivalence class in
	// the query's source-predicate graph, or -1 when the column is a
	// computed value that participates in no cross-expression predicate.
	EqIDs []int

	// StateEqIDs maps each column of the tuples exposed by IterState and
	// OnStore to its equivalence class. For hash-join inputs and distinct
	// this equals EqIDs (state tuples are input tuples); for group-by the
	// state tuples are the group keys, whose classes come from the
	// group-by expressions.
	StateEqIDs []int

	// Schema of the tuples arriving at this input.
	Schema *types.Schema

	// Bank receives injected filters; the owning operator probes it for
	// every arriving tuple before processing, and so does a base-table scan
	// feeding the input directly (Scan.Point), one chunk ahead.
	Bank *FilterBank

	// Stateful marks inputs whose tuples are buffered (hash-join inputs,
	// group-by, distinct); only these produce AIP sets.
	Stateful bool

	// KeyCols are the state-schema columns the operator hashes its state
	// on (join keys, group-by keys, the full tuple for distinct). AIP sets
	// are produced over these columns only: they are the attributes the
	// operator's state is organized by, and building working summaries of
	// every carried column would cost far more than it prunes.
	KeyCols []int

	// Site is the executing node (0 = master). A filter built at another
	// site crosses the link before it is attached here: the AIP controllers
	// ship it over the query's topology and count its bytes.
	Site int

	// Tables lists the base tables feeding this input. When a source is
	// abandoned under PartialOnSourceError, every point fed by its table is
	// marked state-incomplete so AIP controllers never publish the partial
	// state as a complete set.
	Tables []string

	// Depth is the input's depth in the physical plan tree (root joins are
	// depth 0); ESTIMATEBENEFIT visits candidate users bottom-up.
	Depth int

	// Ancestors lists the points on the path from this input up to the
	// plan root, nearest first. Used to avoid double-counting benefits.
	Ancestors []*Point

	// EstRows is the optimizer's cardinality estimate for this input.
	EstRows float64

	// SourceRows is the size of the largest source feeding this input when
	// every scan below it is local and undelayed, else 0; filled in by
	// RankSources, read by start order's filter waits (startorder.go).
	SourceRows int

	// sibling is the other input of the join this input belongs to (nil
	// otherwise); linked by RankSources, read by start order's sibling
	// edges, which rank it on EstRows.
	sibling *Point
	// below lists the inputs right under this one, whose outputs its
	// operator's input is made of: start order's data edges. scanned says a
	// scan is wired to it (Scan.Point). Both are recorded by RankSources.
	below   []*Point
	scanned bool

	// DomainDistinct estimates, per input column, the number of distinct
	// values in the column's attribute domain (used for filter
	// selectivity estimation); 0 means unknown.
	DomainDistinct []float64

	// StateDomains gives, per column of the state schema (like
	// StateEqIDs), the value range of the integer-backed base column it
	// carries; the AIP controllers build a class's set as a bitmap over
	// the union of its producers' ranges when that union is small enough.
	StateDomains []IntDomain

	// Op is the owning operator's stats block, set by the operator at Start
	// before it starts its inputs (so every OnStore call, and a scan pruning
	// on the point's behalf, observes it). Controllers attribute
	// per-operator filter memory — published summary bytes and in-progress
	// working-set bytes — through it; nil skips the per-operator accounting
	// (registry totals are still kept).
	Op *stats.OpStats

	// Runtime counters maintained by the owning operator.
	received        atomic.Int64
	stored          atomic.Int64
	done            atomic.Bool
	stateIncomplete atomic.Bool
	// published is closed once the input is Done and the controller has
	// attached what it built from it (made by Context.Register, closed by
	// Context.pointDone).
	published chan struct{}

	// OnStore, when set by a controller, is invoked for every tuple the
	// operator buffers into its state (Feed-Forward builds its working
	// AIP sets here). It must be set before execution begins. A join
	// input's callers are its route's goroutines — the router, or every
	// chunk worker of the routing scan — until the other input completes,
	// after which it is not called (nor while a routing scan holds its
	// deliveries for that input); a partitioned HashAgg or Distinct calls
	// it from every partition worker. Either way calls come at once, so it
	// must be safe for concurrent use. Every call happens-before the point's
	// PointDone.
	OnStore func(t types.Tuple)

	// state gives controllers access to the operator's buffered tuples
	// once the input is done (Cost-Based scans it to build AIP sets).
	stateMu   sync.Mutex
	stateIter func(emit func(t types.Tuple) bool)
}

// CloneForRun returns a fresh Point carrying the same plan metadata (name,
// schema, equivalence classes, key columns, estimates, site, depth) with
// zeroed runtime state: a new empty FilterBank, no counters, no OnStore
// hook, no state iterator. Ancestors are NOT remapped — they still point at
// the template's points; callers instantiating a whole plan must rewrite
// them against their own clone map. This is what lets one optimized plan
// template back many concurrent executions.
func (p *Point) CloneForRun() *Point {
	return &Point{
		Name:           p.Name,
		EqIDs:          append([]int(nil), p.EqIDs...),
		StateEqIDs:     append([]int(nil), p.StateEqIDs...),
		Schema:         p.Schema,
		Bank:           NewFilterBank(),
		Stateful:       p.Stateful,
		KeyCols:        append([]int(nil), p.KeyCols...),
		Site:           p.Site,
		Tables:         append([]string(nil), p.Tables...),
		Depth:          p.Depth,
		Ancestors:      append([]*Point(nil), p.Ancestors...),
		EstRows:        p.EstRows,
		DomainDistinct: append([]float64(nil), p.DomainDistinct...),
		StateDomains:   p.StateDomains, // read-only plan metadata, shared
	}
}

// Received returns the number of tuples that have arrived at this input.
func (p *Point) Received() int64 { return p.received.Load() }

// StoredRows returns the number of tuples buffered into operator state.
func (p *Point) StoredRows() int64 { return p.stored.Load() }

// Done reports whether the input has been fully consumed.
func (p *Point) Done() bool { return p.done.Load() }

// StateComplete reports whether the buffered state reflects the entire
// input; it is false after the join's short-circuit optimization stopped
// buffering. AIP sets may only be built from complete state.
func (p *Point) StateComplete() bool { return !p.stateIncomplete.Load() }

// MarkDoneForTest flips the done flag without running an operator; tests of
// the AIP controllers use it to simulate input completion.
func (p *Point) MarkDoneForTest() { p.done.Store(true) }

// setStateIter installs the operator's state iterator.
func (p *Point) setStateIter(f func(emit func(t types.Tuple) bool)) {
	p.stateMu.Lock()
	p.stateIter = f
	p.stateMu.Unlock()
}

// IterState streams the operator's buffered tuples to emit, stopping when emit
// returns false; a no-op for stateless points. Valid once the point is Done,
// but re-check StateComplete after: an eviction may empty the state between.
func (p *Point) IterState(emit func(t types.Tuple) bool) {
	p.stateMu.Lock()
	f := p.stateIter
	p.stateMu.Unlock()
	if f != nil {
		f(emit)
	}
}
