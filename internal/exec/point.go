package exec

import (
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
	b.cur.Store(&next)
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
	b.cur.Store(&next)
}

// Len returns the number of attached filters.
func (b *FilterBank) Len() int { return len(*b.cur.Load()) }

// ProbeScratch is the per-worker working state of FilterBank.ProbeBatch:
// lane-indexed key hashes and encodings plus the reusable buffers the
// kernel narrows selections through. All slices are reused across batches
// (zero allocations once warm) and invalidated by the next ProbeBatch or
// compute call on the same scratch. One scratch per goroutine, like
// types.Hasher.
type ProbeScratch struct {
	// Primary arrays: the probing operator's own key columns, filled by
	// compute. Routers read hashes/key after ProbeBatch returns, so the
	// hash-once discipline spans probing AND routing.
	hashes []uint64
	starts []int32
	ends   []int32
	keyBuf []byte
	keyAt  func(int32) []byte // bound once; resolves a lane in the primary arrays

	// Alt arrays: filters attached over a different column set than the
	// operator's own keys encode through these instead.
	altHashes []uint64
	altStarts []int32
	altEnds   []int32
	altKeyBuf []byte
	altKeyAt  func(int32) []byte

	// Source-vector state, set by a base-table scan probing on behalf of its
	// consumer (scanWorker.chunk): vecs is the table's typed-vector view and
	// the batch being probed is table rows [vecLo, vecLo+len(tuples)). A
	// filter over one integer-backed column then hashes straight from the
	// vector and never dereferences a row; exact summaries resolve key bytes
	// per probed lane through vecKey.
	vecs  expr.ColumnVectors
	vecLo int
	vec   []int64
	vecAt func(int32) []byte

	// Deferred-materialization state: while computeHashes has skipped the
	// key-byte pass, exact summaries resolve lanes through lazyKey.
	lazyTuples []types.Tuple
	lazyCol    int
	lazyBuf    []byte
	lazyAt     func(int32) []byte
}

// compute fills the primary arrays for the listed lanes: one canonical
// encoding and one Hash64 per live lane, exactly what the scalar path's
// Hasher.KeyCols did per tuple.
func (sc *ProbeScratch) compute(tuples []types.Tuple, cols []int, sel []int32) {
	n := len(tuples)
	sc.hashes = growU64(sc.hashes, n)
	sc.starts = growI32(sc.starts, n)
	sc.ends = growI32(sc.ends, n)
	sc.keyBuf = sc.keyBuf[:0]
	for _, i := range sel {
		start := len(sc.keyBuf)
		sc.keyBuf = tuples[i].AppendKeyCols(sc.keyBuf, cols)
		sc.hashes[i] = types.Hash64(sc.keyBuf[start:], 0)
		sc.starts[i] = int32(start)
		sc.ends[i] = int32(len(sc.keyBuf))
	}
}

// computeHashes fills only the hash array, deferring key-byte
// materialization: for a single integer-backed key column (the dominant
// equijoin shape) each lane is one register hash (types.HashIntKey) with
// zero byte stores, so probing writes nothing to the key buffer for lanes
// a filter will prune anyway. Returns true when it succeeded and bytes are
// deferred; on any other key shape it falls back to compute and returns
// false. Mixed-kind columns restart at the first non-integer lane, so the
// fallback cost is only paid by genuinely mixed batches.
func (sc *ProbeScratch) computeHashes(tuples []types.Tuple, cols []int, sel []int32) bool {
	if len(cols) != 1 {
		sc.compute(tuples, cols, sel)
		return false
	}
	c := cols[0]
	sc.hashes = growU64(sc.hashes, len(tuples))
	for _, i := range sel {
		v := tuples[i][c]
		if v.K != types.KindInt && v.K != types.KindDate && v.K != types.KindBool {
			sc.compute(tuples, cols, sel)
			return false
		}
		sc.hashes[i] = types.HashIntKey(v.I)
	}
	return true
}

// materialize back-fills the key bytes computeHashes deferred, for the
// listed (surviving) lanes only. Only called when computeHashes succeeded,
// so every lane is integer-backed.
func (sc *ProbeScratch) materialize(tuples []types.Tuple, c int, sel []int32) {
	n := len(tuples)
	sc.starts = growI32(sc.starts, n)
	sc.ends = growI32(sc.ends, n)
	sc.keyBuf = sc.keyBuf[:0]
	for _, i := range sel {
		start := len(sc.keyBuf)
		sc.keyBuf = types.AppendIntKey(sc.keyBuf, tuples[i][c].I)
		sc.starts[i] = int32(start)
		sc.ends[i] = int32(len(sc.keyBuf))
	}
}

// altCompute hashes the listed lanes' keys over cols into altHashes and
// returns the resolver of their canonical key bytes.
func (sc *ProbeScratch) altCompute(tuples []types.Tuple, cols []int, sel []int32) func(int32) []byte {
	n := len(tuples)
	sc.altHashes = growU64(sc.altHashes, n)
	if sc.vecs != nil && len(cols) == 1 {
		if vec, _ := sc.vecs.IntVec(cols[0]); vec != nil {
			sc.vec = vec[sc.vecLo : sc.vecLo+n]
			for _, i := range sel {
				sc.altHashes[i] = types.HashIntKey(sc.vec[i])
			}
			if sc.vecAt == nil {
				sc.vecAt = sc.vecKey
			}
			return sc.vecAt
		}
	}
	sc.altStarts = growI32(sc.altStarts, n)
	sc.altEnds = growI32(sc.altEnds, n)
	sc.altKeyBuf = sc.altKeyBuf[:0]
	for _, i := range sel {
		start := len(sc.altKeyBuf)
		sc.altKeyBuf = tuples[i].AppendKeyCols(sc.altKeyBuf, cols)
		sc.altHashes[i] = types.Hash64(sc.altKeyBuf[start:], 0)
		sc.altStarts[i] = int32(start)
		sc.altEnds[i] = int32(len(sc.altKeyBuf))
	}
	if sc.altKeyAt == nil {
		sc.altKeyAt = sc.altKey
	}
	return sc.altKeyAt
}

// vecKey is lazyKey over the source vector: one transient canonical encode
// per lane an exact summary asks about, valid until the next call.
func (sc *ProbeScratch) vecKey(i int32) []byte {
	sc.lazyBuf = types.AppendIntKey(sc.lazyBuf[:0], sc.vec[i])
	return sc.lazyBuf
}

// key returns lane i's canonical key bytes from the primary arrays; valid
// until the next compute/ProbeBatch on this scratch.
func (sc *ProbeScratch) key(i int32) []byte { return sc.keyBuf[sc.starts[i]:sc.ends[i]] }

func (sc *ProbeScratch) primaryKeyAt() func(int32) []byte {
	if sc.keyAt == nil {
		sc.keyAt = sc.key
	}
	return sc.keyAt
}

func (sc *ProbeScratch) altKey(i int32) []byte { return sc.altKeyBuf[sc.altStarts[i]:sc.altEnds[i]] }

// lazyKey encodes lane i's key on demand while key bytes are deferred
// (computeHashes mode): exact summaries probed mid-batch still see the
// canonical bytes, one transient lane at a time. The returned slice is
// valid until the next lazyKey call.
func (sc *ProbeScratch) lazyKey(i int32) []byte {
	sc.lazyBuf = types.AppendIntKey(sc.lazyBuf[:0], sc.lazyTuples[i][sc.lazyCol].I)
	return sc.lazyBuf
}

func (sc *ProbeScratch) lazyPrimaryKeyAt() func(int32) []byte {
	if sc.lazyAt == nil {
		sc.lazyAt = sc.lazyKey
	}
	return sc.lazyAt
}

// ProbeBatch runs the live lanes of a batch through every attached filter
// and returns the surviving selection, mirroring the expr kernels' Sel
// contract. sel lists the live lanes in
// ascending order; survivors are appended to out, which the caller owns
// and passes with length 0. out may share sel's backing array (out =
// sel[:0]) for in-place narrowing — implementations only append behind
// their read cursor — but must otherwise not overlap sel.
//
// keyCols are the operator's own key columns, or nil when it has none:
// when non-nil the hash array is filled for every lane of sel (even ones a
// filter later prunes), so after the call sc.hashes[i] and sc.key(i) are
// valid for every surviving lane and the caller can route on them without
// re-hashing. Key BYTES are materialized only for survivors when the key
// shape allows it (single integer-backed column): pruned lanes never touch
// the key buffer, and exact summaries probed mid-batch resolve lanes
// through a transient per-lane encode. Filters over other column sets
// encode through the alt arrays, narrowed-lanes only. The caller must
// check Len() > 0 first; with no filters attached a probe would be a
// pointless copy.
func (b *FilterBank) ProbeBatch(tuples []types.Tuple, keyCols []int, sel []int32, out []int32, sc *ProbeScratch) []int32 {
	filters := *b.cur.Load()
	if len(filters) == 0 {
		return append(out, sel...)
	}
	deferred := false
	if keyCols != nil {
		deferred = sc.computeHashes(tuples, keyCols, sel)
	}
	live := sel
	out = out[:0]
	for i := range filters {
		var hashes []uint64
		var keyAt func(int32) []byte
		if keyCols != nil && equalInts(filters[i].cols, keyCols) {
			hashes = sc.hashes
			if deferred {
				sc.lazyTuples, sc.lazyCol = tuples, keyCols[0]
				keyAt = sc.lazyPrimaryKeyAt()
			} else {
				keyAt = sc.primaryKeyAt()
			}
		} else {
			keyAt = sc.altCompute(tuples, filters[i].cols, live)
			hashes = sc.altHashes
		}
		if i == 0 {
			out = filters[i].sum.MayContainHashBatch(hashes, live, out, keyAt)
		} else {
			out = filters[i].sum.MayContainHashBatch(hashes, out, out[:0], keyAt)
		}
		live = out
		if len(out) == 0 {
			break
		}
	}
	if deferred {
		sc.materialize(tuples, keyCols[0], out)
		sc.lazyTuples = nil
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

	// Site is the executing node (0 = master). Filters attached to a
	// remote point must be shipped; the harness models that cost.
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
	// every scan below it is local and unpaced, else 0; filled in by
	// RankSources, read by start order (startorder.go).
	SourceRows int

	// sibling is the other input of the join this input belongs to (nil
	// otherwise); linked by RankSources, read by start order's sibling wait.
	sibling *Point

	// DomainDistinct estimates, per input column, the number of distinct
	// values in the column's attribute domain (used for filter
	// selectivity estimation); 0 means unknown.
	DomainDistinct []float64

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
	// AIP sets here). It must be set before execution begins.
	//
	// slot identifies the calling goroutine's partition: partitioned
	// operators pass their partition index, single-goroutine callers (the
	// join router) pass 0, and slot is always < MaxPartitions. Calls with
	// the same slot are serialized by the owning goroutine, while calls
	// with different slots may run concurrently — implementations can
	// therefore keep lock-free per-slot working state and merge it when
	// the point completes (all OnStore calls happen-before PointDone).
	OnStore func(slot int, t types.Tuple)

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
