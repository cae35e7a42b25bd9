// Package exec is the push-style execution engine modeled on Tukwila
// (§V-A): multithreaded, with pipelined (symmetric) hash joins that run one
// goroutine per input, hash-based aggregation, bushy plans, per-operator
// cardinality counters, and support for on-the-fly registration of semijoin
// filters ("we extended our join and group-by implementations to support
// registration of new semijoin operators on the fly; these semijoins are
// called when a tuple is received and before it is processed internally").
//
// # Data-path design
//
// The engine is batch-at-a-time and hash-once:
//
//   - BatchSize (128) tuples move per channel send. Operator locks are
//     taken once per batch and per-operator stat counters are accumulated
//     in goroutine-locals and flushed once per batch, so the per-tuple path
//     has no mutex or atomic traffic.
//   - Selection starts at the source. An unpaced, undelayed base-table Scan
//     works in chunks of scanChunkRows (1024) table rows: it evaluates the
//     predicate of the Filter directly above it — column ⊕ constant
//     conjuncts as typed kernels over the table's column vectors
//     (expr.VecCmp over catalog.Table.IntVec/FloatVec), the rest through
//     the row kernels — then probes the FilterBank of the operator input it
//     feeds (Scan.Point, wired by the optimizer when nothing but Filters
//     sits in between), hashing integer keys straight from the key vector.
//     The bank is read once per chunk, so a filter published mid-scan
//     applies from the next chunk on. Paced, delayed and fault-injected
//     scans select nothing (their flush sequence is the source model,
//     Scan.runSequential), nor does a remote scan (the Ship above it prunes
//     at the remote site and charges the link per batch).
//   - Who routes: when the keys of the input such a scan feeds — join key
//     columns, group-by column refs — all have an IntVec, the scan is the
//     input's router (routingScan): it drives the inputRoute a router
//     goroutine drives per batch, per chunk and from the vectors, and
//     scatters (row id, key hash, one int64 key word per column) straight to
//     the partition workers, at most one message per partition per chunk;
//     their KeyTables compare the words with the stored canonical bytes in
//     place and append those bytes for a new key. Any other input
//     — a DECIMAL or NULL-holding key, a computed group key, an operator
//     below — gets dense batches of copied row headers and a router, as ever.
//   - Who resolves a tuple, and when: a join entry is 16 pointer-free bytes
//     {ticket, next, ref}, ref indexing the scanned table's rows for a
//     scan-routed side and the join table's own header store otherwise; its
//     bytes are charged from TableVectors.RowBytes, so accounted state stays
//     Σ Tuple.MemSize. HashAgg keeps typed per-aggregate columns indexed by
//     group id (aggState) and folds plain-column arguments into them from
//     the vectors by row id. A header is resolved only for an emitted match
//     (then the residual), a new group's key, OnStore, a spill write, the
//     state iterator, or an argument no vector backs.
//   - Start order (startorder.go): a wired scan holds its first chunk until
//     some inputs are Done and published (the controller, if any, has
//     attached what it built from them). The sibling wait, under every
//     strategy: the other input of the join the scan feeds, when its sources
//     are at least siblingWaitRatio (4) times smaller — it then completes
//     first, and the §VI-A short-circuit leaves the scan's side probe-only,
//     so the big input is never buffered (on Q4A at SF 0.05 the lineitem side
//     otherwise buffers up to all 300 k rows, 97 MB). The filter wait, under
//     an AIP controller: every input whose sources are at least
//     filterWaitRatio (8) times smaller. A filter pays in proportion to how
//     early it arrives (§VI), and a scan that routes from vectors outruns
//     its small siblings otherwise: on Q17 5–11 k lineitem rows slipped past
//     part's filter, on Q1A a quarter of partsupp. The filter wait needs the
//     wider gap because what it buys depends on how much the filter prunes;
//     the sibling wait buys a whole input's state. An input with no rank
//     (SourceRows 0: a paced, delayed, fault-injected or remote source below
//     it) never waits and is never waited on. It cannot deadlock: every wait
//     goes from an input to one with strictly fewer source rows, and an
//     input's publication depends only on the scans below it, whose sources
//     are no bigger and which wait only for still smaller inputs — a
//     well-founded order, so no cycle. Only scans wait: routers and workers
//     consume what arrives without waiting for a sibling input, a wait ends
//     on cancellation, and a scan that ends early (an abandoned source)
//     still completes its input.
//   - The root edge: a root Project of plain column references directly
//     over such a scan is not started (StartPlan): the scan emits row-id
//     batches (see Batch), up to scanChunkRows survivors as int32 row ids
//     over the table, and keeps the project:* stats row. A paced scan or one
//     computed column keeps the Project. Every plan runs this way, whatever
//     its size: a point lookup is one scan goroutine and its output channel.
//   - Above the scan, predicates and projections are evaluated
//     batch-at-a-time through the compiled kernels of internal/expr
//     (expr.Compile): Filter narrows a batch's selection vector in place
//     instead of copying survivors, Project evaluates expression-at-a-time
//     into arena rows, and the join residual and aggregation argument paths
//     consume the same EvalBatch / EvalBool API. See the Batch type for the
//     selection-vector ownership contract; scalar expr.Eval remains the
//     reference semantics.
//   - Who counts what: a scan's In is the rows it read and its Out the rows
//     it emitted (Result.TuplesScanned sums In). For a scan probing on a
//     point's behalf, each row it prunes is added once to the consumer's
//     Pruned (Point.Op) and once to the point's received count; each row it
//     emits is counted by the consumer on arrival — In, received, and
//     Pruned if a later filter drops it there (a routing scan is the
//     arrival: the consumer's In is the scan's Out). So received is every
//     row that reached the input before probing, Pruned every row a filter
//     dropped, each exactly once; PreFilter, under a controller, the rows
//     that arrived while no filter was attached. Consumers set Point.Op
//     before they start their inputs.
//   - Every tuple key is canonically encoded and hashed exactly once per
//     (tuple, column set) via types.Hasher. The resulting 64-bit hash
//     drives the join/aggregation/distinct tables (types.KeyTable, open
//     addressing with inline key-byte verification — no string(key)
//     allocations), the Bloom filter fast path (bloom.AddHash /
//     bloom.ProbeHash), and the exact hash-set summary
//     (filter.Summary.MayContainHash).
//   - Batch slices are pooled (GetBatch / PutBatch): a batch has exactly
//     one owner; the consumer recycles it after use. Join and projection
//     output rows are carved from per-batch arenas (rowArena), one backing
//     allocation per ~BatchSize rows instead of one per row.
//
// Steady state, the join hot path performs zero allocations per probed
// tuple (asserted by testing.AllocsPerRun regression tests).
//
// # Partitioned parallelism
//
// The stateful operators (HashJoin, HashAgg, Distinct) are radix
// partitioned so a single operator saturates all cores, not one core per
// input. A router goroutine per input (or the scan feeding it, see above)
// performs the lock-free phase — AIP-filter probe and hash-once key
// encoding — and routes each surviving tuple to one of P partitions by the
// top bits of its 64-bit key hash
// (P = Context.Parallelism rounded down to a power of two). Tuples with
// equal keys therefore always land in the same partition, so partitions
// are independent sub-problems.
//
// Each partition's state (a pair of joinTables for the join, a KeyTable with
// group columns for agg, with seen tuples for distinct) is owned by exactly
// one worker goroutine, which serializes all inserts and probes for that
// partition; ownership replaces the per-side lock of the pre-partitioned
// engine, and insert/probe for different partitions never contend. The symmetric
// join's exactly-once argument holds per partition: every buffered tuple
// takes a ticket from the partition's counter, a probing tuple emits only
// matches with smaller tickets, and because one worker serializes the
// partition, for any result pair the later-ticketed tuple observes the
// earlier one and the earlier never emits the later. Side-level completion
// (the paper's §VI-A short-circuit, Point.Done, state iterators) is
// detected with a per-input pending-message counter: the input is done
// only after its router has finished AND every scattered message has been
// drained by the workers, i.e. after the input's last probe.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/types"
)

// BatchSize is the number of tuples moved per channel send.
const BatchSize = 128

// Batch is a group of tuples flowing between operators, with an optional
// selection vector.
//
// When Sel is nil every tuple in Tuples is live. When Sel is non-nil it
// lists the live lane indices of Tuples in strictly ascending order, and
// dead lanes must be ignored: filtering operators mark survivors by
// narrowing Sel instead of compacting Tuples. Whoever holds the batch owns
// both slices; PutBatch recycles them together. Operators that materialize
// rows (Project, the join's output builder, aggregation) emit dense
// batches, so selections never pile up across pipeline stages; so does a
// scan, which copies the surviving row headers out of the table (a pooled
// batch never aliases table storage) and never sends an empty batch.
//
// A row-id batch (Src non-nil, Tuples nil) selects from the table instead:
// Sel lists row ids of Src.Rows, and the batch stands for those rows
// projected onto Src.Cols. Only the root may emit one — a scan standing in
// for the Project above it, see StartPlan — so only the root's consumers
// must handle one: Collect (boxes a batch into one block), sip.Rows (boxes a
// row when asked) and the wire session (encodes the column vectors). Its Sel
// is a pooled vector like any other: no batch ever aliases table storage.
type Batch struct {
	Tuples []types.Tuple
	Sel    []int32
	Src    *RootSource
}

// RootSource is the table a row-id batch indexes and the table columns the
// root projects, in output order. Shared by every batch of a run; read-only.
type RootSource struct {
	Rows []types.Tuple
	Vecs TableVectors
	Cols []int
	name string // of the Project the scan stands in for: its stats row is kept
}

// Box appends the projection of table row rid to block, which has room for
// it, and returns block and the row.
func (s *RootSource) Box(block []types.Value, rid int32) ([]types.Value, types.Tuple) {
	n, row := len(block), s.Rows[rid]
	for _, c := range s.Cols {
		block = append(block, row[c])
	}
	return block, block[n:len(block):len(block)]
}

// Len returns the number of live tuples.
func (b Batch) Len() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Tuples)
}

// Live returns the batch's live lanes: Sel when present, else the shared
// identity selection. The returned slice is read-only for dense batches —
// mutating consumers must use Sel directly or allocate their own.
func (b Batch) Live() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return identSel(len(b.Tuples))
}

// Controller is the runtime hook set implemented by the AIP strategies in
// internal/core. A nil Controller runs the baseline engine.
type Controller interface {
	// RegisterPoint is called once per injection point while the physical
	// plan is instantiated, before execution starts.
	RegisterPoint(p *Point)
	// Begin is called after all points are registered, before data flows.
	Begin()
	// PointDone is called when an input has consumed all of its data; for
	// stateful points the buffered state is final at this moment.
	PointDone(p *Point)
	// End is called after the query completes.
	End()
}

// MaxPartitions caps the partition fan-out of parallel operators; beyond
// this, scatter/channel overhead dominates any added concurrency.
const MaxPartitions = 64

// Context carries per-query runtime state shared by all operators.
type Context struct {
	Stats *stats.Registry
	Ctl   Controller

	// Parallelism is the partition fan-out of the parallel stateful
	// operators (hash join, aggregation, distinct). Zero or negative means
	// runtime.GOMAXPROCS(0); the effective value is rounded down to a power
	// of two and capped at MaxPartitions. One partition reproduces the
	// pre-partitioned single-owner data path exactly.
	Parallelism int

	// Recovery configures retries, timeouts, circuit breaking, and the
	// failure mode for unreliable sources. The zero value uses the default
	// retry policy, no breakers, and fail-fast semantics.
	Recovery Recovery

	// MemBudget caps the query's tracked operator state (join tables, agg
	// groups, distinct sets) in bytes. Zero or negative runs
	// unbounded. Under a budget the partitioned stateful operators run the
	// paper's bucket-discard policy: a partition over its share evicts its
	// hash state to a spill run (internal/spill) and a merge/rescan phase
	// after input-done recovers the evicted matches, so results are
	// identical to an unbounded run. A budget too small for the merge phase
	// to converge fails the query with a *BudgetError instead of
	// thrashing. See the accounting methods in memory.go.
	MemBudget int64

	cancel    chan struct{}
	cancelOne sync.Once
	cause     atomic.Pointer[error]

	tracked     atomic.Int64 // current accounted operator-state bytes
	trackedPeak atomic.Int64 // high-water mark of tracked
	memParts    atomic.Int64 // registered budget-accounted partitions (addMemParts)
	spillBytes  atomic.Int64 // total bytes written to spill runs
	spillEvents atomic.Int64 // bucket-discard evictions

	spillMu  sync.Mutex
	spillDir string // lazily created per-query temp dir for spill runs

	mu     sync.Mutex
	points []*Point
	nextID int

	wg sync.WaitGroup // goroutines started via Spawn

	incMu      sync.Mutex
	incomplete map[string]*SourceError // dead sources (PartialOnSourceError)
}

// NewContext creates an execution context. reg must be non-nil; ctl may be
// nil for baseline execution.
func NewContext(reg *stats.Registry, ctl Controller) *Context {
	return &Context{Stats: reg, Ctl: ctl, cancel: make(chan struct{})}
}

// partitions resolves the effective partition count: Parallelism (or
// GOMAXPROCS when unset) rounded down to a power of two, in [1, MaxPartitions].
func (c *Context) partitions() int {
	p := c.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > MaxPartitions {
		p = MaxPartitions
	}
	for p&(p-1) != 0 { // clear low one-bits down to a power of two
		p &= p - 1
	}
	return p
}

// pipelineDepth is the buffer, in batches, of every inter-operator channel
// (pipeline edges and partition scatter channels): deep enough to keep a
// producer from stalling on a momentarily busy consumer, shallow enough that
// a query holds O(operators) batches in flight.
const pipelineDepth = 4

// minPartitionRows is the estimated row count below which an extra
// partition is not worth its worker goroutine and scatter channel.
const minPartitionRows = 1024

// clampPartitions halves p until the optimizer's cardinality estimate
// keeps every partition meaningfully loaded, so tiny inputs run on the
// cheap single-owner path even on wide machines. An absent estimate
// (est <= 0) leaves p untouched — explicit Parallelism settings and
// estimate-free plans keep their fan-out.
func clampPartitions(p int, est float64) int {
	if est <= 0 {
		return p
	}
	for p > 1 && est < float64(p)*minPartitionRows {
		p >>= 1
	}
	return p
}

// pointEstRows reads a possibly-absent injection point's cardinality
// estimate, so operators can clamp on whatever estimates the plan carries.
func pointEstRows(p *Point) float64 {
	if p == nil {
		return 0
	}
	return p.EstRows
}

// partShift converts a partition count to the right-shift that maps a
// 64-bit key hash to its partition index (top-bits radix).
func partShift(p int) uint {
	s := uint(64)
	for p > 1 {
		p >>= 1
		s--
	}
	return s
}

// Cancel aborts the query; operators drain and stop promptly. The recorded
// cause is context.Canceled.
func (c *Context) Cancel() { c.CancelCause(context.Canceled) }

// CancelCause aborts the query recording why; the first cause wins. A nil
// err is recorded as context.Canceled.
func (c *Context) CancelCause(err error) {
	c.cancelOne.Do(func() {
		if err == nil {
			err = context.Canceled
		}
		c.cause.Store(&err)
		close(c.cancel)
	})
}

// Err returns the cancellation cause, or nil while the query has not been
// cancelled. A completed, uncancelled query always reports nil.
func (c *Context) Err() error {
	if p := c.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Cancelled returns the cancellation channel.
func (c *Context) Cancelled() <-chan struct{} { return c.cancel }

// BindStd ties the execution context to a standard context.Context: a
// watcher goroutine forwards std's deadline or cancellation to CancelCause
// (so Err reports context.Canceled / context.DeadlineExceeded) and exits as
// soon as the query is cancelled from either side. The returned stop
// function tears the watcher down and waits for it to exit; callers must
// invoke it once the query completes so no goroutine outlives the query.
func (c *Context) BindStd(std context.Context) (stop func()) {
	if std == nil || std.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-std.Done():
			c.CancelCause(context.Cause(std))
		case <-quit:
		case <-c.cancel:
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}

// Register assigns an id to a point, records it, and forwards it to the
// controller. All points must be registered before Run starts the plan.
func (c *Context) Register(p *Point) {
	c.mu.Lock()
	p.ID = c.nextID
	c.nextID++
	p.published = make(chan struct{})
	c.points = append(c.points, p)
	c.mu.Unlock()
	if c.Ctl != nil {
		c.Ctl.RegisterPoint(p)
	}
}

// Points returns all registered injection points.
func (c *Context) Points() []*Point {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Point, len(c.points))
	copy(out, c.points)
	return out
}

// pointDone notifies the controller, then whoever awaits the point. Each
// operator calls it once per completed input.
func (c *Context) pointDone(p *Point) {
	if c.Ctl != nil {
		c.Ctl.PointDone(p)
	}
	if p.published != nil { // nil: never registered (a hand-built test plan)
		close(p.published)
	}
}

// send delivers a batch unless the query was cancelled; it reports whether
// the send happened.
func send(ctx *Context, out chan<- Batch, b Batch) bool {
	if b.Len() == 0 {
		return true
	}
	select {
	case out <- b:
		return true
	case <-ctx.Cancelled():
		return false
	}
}

// Op is a physical operator. Start launches the operator's goroutines and
// returns its output channel; the channel is closed when the operator
// finishes or the context is cancelled.
type Op interface {
	Schema() *types.Schema
	Start(ctx *Context) <-chan Batch
}

// StartPlan launches a plan and returns the root output channel. A root
// Project.rootScan accepts is not started: the scan emits row-id batches, the
// consumer projects.
func StartPlan(ctx *Context, root Op) <-chan Batch {
	if p, ok := root.(*Project); ok {
		if sc, pred, src := p.rootScan(); sc != nil {
			return sc.start(ctx, pred, nil, src)
		}
	}
	return root.Start(ctx)
}

// Run executes a plan to completion and collects all output tuples. When
// the context was cancelled (Cancel, CancelCause, or a bound standard
// context firing) the possibly-truncated rows are returned alongside the
// cancellation cause, so callers can distinguish a complete result from a
// cut-off one.
func Run(ctx *Context, root Op) ([]types.Tuple, error) {
	if ctx.Ctl != nil {
		ctx.Ctl.Begin()
	}
	rows := Collect(StartPlan(ctx, root))
	ctx.Wait() // a panicking operator closes its output before Spawn records the cause
	if ctx.Ctl != nil {
		ctx.Ctl.End()
	}
	return rows, ctx.Err()
}

// Collect drains a batch channel into an exactly-sized tuple slice,
// honoring selection vectors and recycling every batch. Batches are
// collected first, then copied once: appending tuple-by-tuple would
// reallocate and re-copy the result log₂(n) times for large outputs. It is
// the shared materialization step of Run and the public blocking Query
// path.
func Collect(out <-chan Batch) []types.Tuple {
	var batches []Batch
	total := 0
	for b := range out {
		batches = append(batches, b)
		total += b.Len()
	}
	rows := make([]types.Tuple, 0, total)
	for _, b := range batches {
		if src := b.Src; src != nil { // box the batch's rows in one block
			block, row := make([]types.Value, 0, len(b.Sel)*len(src.Cols)), types.Tuple(nil)
			for _, rid := range b.Sel {
				block, row = src.Box(block, rid)
				rows = append(rows, row)
			}
		} else if b.Sel == nil {
			rows = append(rows, b.Tuples...)
		} else {
			for _, l := range b.Sel {
				rows = append(rows, b.Tuples[l])
			}
		}
		PutBatch(b)
	}
	return rows
}
