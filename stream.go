package sip

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/network"
	"repro/internal/stats"
)

// Query parses, binds, optimizes (consulting the plan cache), and executes
// sql under the options, collecting the full result. It is a thin wrapper
// that drains QueryStream; a cancelled or deadline-expired ctx aborts the
// execution and returns context.Canceled / context.DeadlineExceeded.
func (e *Engine) Query(ctx context.Context, sql string, opts Options) (*Result, error) {
	rows, err := e.QueryStream(ctx, sql, opts)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// QueryStream starts sql and returns a streaming cursor over its result.
// Rows are delivered batch-at-a-time from the root operator over the
// executor's bounded pipeline edges, so a slow consumer exerts backpressure
// (at most a few batches per operator edge are in flight) instead of
// forcing the result to materialize. The caller must exhaust or Close the
// cursor; Close cancels the query and reclaims every operator goroutine.
//
// Queries containing `?` placeholders must go through Prepare.
func (e *Engine) QueryStream(ctx context.Context, sql string, opts Options) (*Rows, error) {
	// The ad-hoc path parameterizes constant literals: queries differing
	// only in constants share one cached template, and the lifted literals
	// come back as bind arguments (see adhocPlan).
	p, args, err := e.adhocPlan(sql, opts)
	if err != nil {
		return nil, err
	}
	if p.numParams > len(args) {
		return nil, fmt.Errorf("sip: query has %d parameter(s); use Prepare and Stmt.Query", p.numParams)
	}
	return e.start(ctx, sql, p, opts, args)
}

// start instantiates the plan template and launches execution, returning
// the cursor wired to the root operator's output edge. sql is the source
// text for the slow-query log.
func (e *Engine) start(ctx context.Context, sql string, p *enginePlan, opts Options, args []Value) (*Rows, error) {
	// An already-cancelled context must fail deterministically: without
	// this check a fast query can outrun the BindStd watcher and return a
	// complete result from a dead context.
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	switch opts.Strategy {
	case Baseline, Magic, FeedForward, CostBased:
	default:
		return nil, fmt.Errorf("sip: unknown strategy %d", opts.Strategy)
	}

	// Admission: block until an execution slot frees or the caller gives up.
	if e.sem != nil {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	// Memory admission: draw a byte grant from the engine-wide pool (when
	// configured), blocking while the pool is dry. Runs after the slot
	// semaphore so the two compose: MaxConcurrentQueries bounds how many
	// grants can be outstanding.
	var grant int64
	if e.gov != nil {
		g, err := e.gov.acquire(ctx)
		if err != nil {
			if e.sem != nil {
				<-e.sem
			}
			return nil, err
		}
		grant = g
	}
	e.running.Add(1)
	var once sync.Once
	release := func() {
		once.Do(func() {
			e.running.Add(-1)
			if e.gov != nil {
				e.gov.release(grant)
			}
			if e.sem != nil {
				<-e.sem
			}
		})
	}

	inst, err := p.built.Instantiate(args)
	if err != nil {
		release()
		return nil, err
	}

	reg := stats.NewRegistry()
	ectx := exec.NewContext(reg, nil)
	ectx.Parallelism = opts.Parallelism
	// Per-query cap and engine grant compose: the tighter one wins.
	ectx.MemBudget = opts.MemBudget
	if grant > 0 && (ectx.MemBudget <= 0 || grant < ectx.MemBudget) {
		ectx.MemBudget = grant
	}

	// Recovery: per-query breaker set (transitions feed the registry) plus
	// the retry policy and failure mode from the options.
	breakers := network.NewBreakerSet(opts.Retry.WithDefaults())
	breakers.OnTransition = func(site int, from, to network.BreakerState) {
		reg.BreakerTransitions.Inc()
	}
	ectx.Recovery = exec.Recovery{
		Policy:   opts.Retry,
		Breakers: breakers,
		Mode:     opts.OnSourceFailure,
	}

	// Controllers are per-run: they hold per-query filter bookkeeping and
	// write into this execution's registry. Built after the context so
	// their filter shipments can run under its recovery policy.
	ctl := e.controller(opts, p, reg, ectx)
	ectx.Ctl = ctl

	for _, pt := range inst.Points {
		ectx.Register(pt)
	}
	stopWatch := ectx.BindStd(ctx)

	if ctl != nil {
		ctl.Begin()
	}
	start := time.Now()

	// Every plan runs on the operator pipeline; a point lookup is a plain
	// projection of one scan, which StartPlan runs as that scan's goroutine
	// alone.
	return &Rows{
		eng:       e,
		sql:       sql,
		sch:       p.schema,
		out:       exec.StartPlan(ectx, inst.Root),
		ectx:      ectx,
		reg:       reg,
		start:     start,
		stopWatch: stopWatch,
		release:   release,
	}, nil
}

// controller builds the per-execution AIP controller (nil for
// Baseline/Magic). Strategy validity was checked by start.
func (e *Engine) controller(opts Options, p *enginePlan, reg *stats.Registry, ectx *exec.Context) exec.Controller {
	switch opts.Strategy {
	case FeedForward, CostBased:
		copts := core.Options{
			FPR:      opts.FPR,
			Kind:     opts.Summary,
			Stats:    reg,
			Topology: p.topo,
			Cost:     core.DefaultCostParams(),
		}
		if opts.Cost != nil {
			copts.Cost = *opts.Cost
		}
		if p.topo != nil {
			// Remote filter shipments run under the query's recovery
			// policy (retries, per-attempt timeouts, site breakers) and
			// account their attempts on a dedicated operator row.
			copts.ShipFilter = ectx.FilterShipper(reg.NewOp("ship:aip-filters"))
		}
		if opts.Strategy == FeedForward {
			return core.NewFeedForward(copts)
		}
		return core.NewCostBased(copts)
	default:
		return nil
	}
}

// errRowsClosed is the cancellation cause recorded when the consumer closes
// the cursor early; it is reported as a clean shutdown (Err() == nil), not
// an error.
var errRowsClosed = errors.New("sip: rows closed")

// Rows is a streaming result cursor. The usage pattern follows
// database/sql:
//
//	rows, err := eng.QueryStream(ctx, sql, opts)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    row := rows.Row()
//	    ...
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Next blocks on the root operator's bounded output edge: not consuming
// rows stalls the pipeline (backpressure) rather than buffering the result.
// Close cancels the query, drains and reclaims every operator goroutine,
// and releases the engine's admission slot; it is safe to call at any time
// and more than once. A Rows is not safe for concurrent use.
type Rows struct {
	eng  *Engine
	sql  string // source text, for the slow-query log
	sch  *Schema
	out  <-chan exec.Batch
	ectx *exec.Context
	reg  *stats.Registry

	start     time.Time
	stopWatch func()
	release   func()

	cur   exec.Batch
	lanes []int32 // cur.Live(): lanes of cur.Tuples, or row ids of cur.Src
	idx   int
	row   Row     // current row; nil until Row boxes it, for a row-id batch
	block []Value // backing of the rows boxed from cur

	done bool
	err  error
	res  *Result
}

// Schema returns the result schema; available immediately.
func (r *Rows) Schema() *Schema { return r.sch }

// Next advances to the next row, blocking until one is available. It
// returns false when the result is exhausted, the query failed, or the
// cursor was closed; consult Err to distinguish.
func (r *Rows) Next() bool {
	for r.idx >= len(r.lanes) {
		if _, ok := r.NextBatch(); !ok {
			return false
		}
	}
	r.row = nil
	if r.cur.Src == nil {
		r.row = r.cur.Tuples[r.lanes[r.idx]]
	}
	r.idx++
	return true
}

// NextBatch advances past the current batch to the next one as the root
// operator emitted it — tuples with an optional selection, or row ids over a
// base table (see exec.Batch) — for a consumer that works a column at a time
// (the wire session); ok is false at the end of the stream. The batch is the
// cursor's: read it before the next call to NextBatch, Next or Close.
func (r *Rows) NextBatch() (b exec.Batch, ok bool) {
	if r.done {
		return b, false
	}
	r.recycle()
	if b, ok = <-r.out; !ok {
		r.finish()
		return b, false
	}
	r.cur, r.lanes, r.idx = b, b.Live(), 0
	return b, true
}

// Row returns the current row. It is valid after a true Next and remains
// valid after further Next/Close calls (rows are independent of the
// recycled batch buffers). A row of a row-id batch (the root of a plain column
// projection of a scan) is boxed here, when first asked for, into a block
// shared with the rows left in its batch: a loop that only counts copies no
// values, and a retained row pins its block.
func (r *Rows) Row() Row {
	if src := r.cur.Src; r.row == nil && src != nil && r.idx > 0 {
		if w := len(src.Cols); cap(r.block)-len(r.block) < w {
			r.block = make([]Value, 0, w*(len(r.lanes)-r.idx+1))
		}
		r.block, r.row = src.Box(r.block, r.lanes[r.idx-1])
	}
	return r.row
}

// Err returns the terminal error: context.Canceled or
// context.DeadlineExceeded when the bound context fired, a *SourceError
// when a source stayed dead under FailOnSourceError, nil after normal
// exhaustion or a consumer-initiated Close.
func (r *Rows) Err() error { return r.err }

// IncompleteTables lists the sources the query has given up on so far
// (OnSourceFailure: PartialOnSourceError), one SourceError per dead table,
// sorted by table. During streaming the list can still grow; after
// exhaustion or Close it is final and matches Result.IncompleteTables.
// Empty means the rows delivered so far cover every source.
func (r *Rows) IncompleteTables() []*SourceError { return r.ectx.IncompleteSources() }

// PeakMemBytes reports the high-water mark of the query's tracked operator
// state so far; it can still grow while the cursor streams.
func (r *Rows) PeakMemBytes() int64 { return r.ectx.PeakTrackedBytes() }

// SpillBytes reports the bytes this query has written to spill runs so far.
func (r *Rows) SpillBytes() int64 { return r.ectx.SpillBytes() }

// SpillEvents reports the whole-bucket evictions this query has made so far.
func (r *Rows) SpillEvents() int64 { return r.ectx.SpillEvents() }

// Close cancels the query if it is still running, drains every operator
// goroutine, and releases the engine admission slot. Always returns nil;
// it is idempotent.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	r.ectx.CancelCause(errRowsClosed)
	r.recycle()
	r.finish()
	return nil
}

// All returns a Go 1.23 range-over-func adapter. The cursor is closed when
// the loop ends, normally or early; a terminal error is yielded as the
// final element.
//
//	for row, err := range rows.All() {
//	    if err != nil { ... }
//	    ...
//	}
func (r *Rows) All() iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		defer r.Close()
		for r.Next() {
			if !yield(r.Row(), nil) {
				return
			}
		}
		if err := r.Err(); err != nil {
			yield(nil, err)
		}
	}
}

// Result returns the lazily-finalized execution summary: row-less Result
// whose duration and counters are read once, at cursor exhaustion or
// Close — never mid-flight. It returns nil while the cursor is still
// active.
func (r *Rows) Result() *Result {
	return r.res
}

// recycle returns the in-hand batch to the executor's pool.
func (r *Rows) recycle() {
	exec.PutBatch(r.cur)
	r.cur, r.lanes, r.idx = exec.Batch{}, nil, 0
}

// finish drains any remaining output (the producers have been cancelled or
// are done), tears down the context watcher, releases admission, and
// finalizes the stats view. Idempotent via r.done.
func (r *Rows) finish() {
	if r.done {
		return
	}
	r.done = true
	for b := range r.out {
		exec.PutBatch(b)
	}
	dur := time.Since(r.start)
	r.stopWatch()
	r.release()
	if r.eng != nil && r.eng.slowThresh > 0 && dur >= r.eng.slowThresh {
		r.eng.slow.record(r.sql, dur, time.Now())
	}
	// Quiescence first: every operator goroutine must have exited before the
	// error is read (a panicking operator closes its output, then records the
	// cause) and before the spill directory is removed (a live merge could
	// hold a run file).
	r.ectx.Wait()
	if err := r.ectx.Err(); err != nil && !errors.Is(err, errRowsClosed) {
		r.err = err
	}
	reg := r.reg
	r.ectx.Cleanup()
	r.res = &Result{
		Schema:                 r.sch,
		Duration:               dur,
		PeakStateBytes:         reg.PeakStateBytes(),
		FiltersCreated:         reg.FiltersMade.Load(),
		FiltersInjected:        reg.FiltersUsed.Load(),
		TuplesPruned:           reg.TotalPruned(),
		TuplesProcessed:        reg.TotalIn(),
		TuplesScanned:          reg.TotalScanned(),
		NetworkBytes:           reg.NetworkBytes.Load(),
		FilterBytes:            reg.FilterBytes.Load(),
		PeakFilterWorkingBytes: reg.PeakFilterWorkingBytes(),
		Retries:                reg.TotalRetries(),
		WastedBytes:            reg.TotalWastedBytes(),
		BreakerTransitions:     reg.BreakerTransitions.Load(),
		PeakMemBytes:           r.ectx.PeakTrackedBytes(),
		SpillBytes:             r.ectx.SpillBytes(),
		SpillEvents:            r.ectx.SpillEvents(),
		IncompleteTables:       r.ectx.IncompleteSources(),
		Stats:                  reg,
	}
}

// drain consumes the whole cursor into a materialized Result (the blocking
// Query path), via the same batch-collect-and-copy step exec.Run uses
// (appending row-by-row through Next would reallocate and re-copy the
// result log₂(n) times for large outputs). Only valid on a fresh cursor
// (before any Next).
func (r *Rows) drain() (*Result, error) {
	rows := exec.Collect(r.out)
	r.finish()
	if err := r.Err(); err != nil {
		return nil, err
	}
	res := r.res
	res.Rows = rows
	return res, nil
}
