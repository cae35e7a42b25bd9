// Package sip is a push-style query engine with Sideways Information
// Passing, reproducing "Sideways Information Passing for Push-Style Query
// Processing" (Ives & Taylor, ICDE 2008).
//
// The engine executes SQL over in-memory relations using multithreaded
// pipelined hash joins and hash aggregation (the Tukwila execution model),
// and supports four execution strategies:
//
//   - Baseline: plain push execution, no information passing.
//   - Magic: magic-sets rewriting (the paper's strongest prior technique).
//   - FeedForward: greedy adaptive information passing (§IV-A).
//   - CostBased: cost-model-driven adaptive information passing (§IV-B),
//     including distributed filter shipping.
//
// Every execution entry point takes a context.Context: cancelling it (or
// letting its deadline expire) drains every operator goroutine promptly and
// surfaces context.Canceled / context.DeadlineExceeded from the query.
//
// Sources can be unreliable. Options.Faults injects deterministic, seeded
// failures (transient errors, drops, stalls, mid-flight cuts) into remote
// links and delayed scans; every remote interaction then runs under
// Options.Retry — bounded retries with capped exponential backoff and
// jitter, per-attempt timeouts, and a per-site circuit breaker — without
// changing the answer: a query that completes under faults returns exactly
// the fault-free result. When a source stays dead through the whole retry
// budget, Options.OnSourceFailure picks the contract: FailOnSourceError
// (default) fails the query with a typed *SourceError naming the table,
// site, attempts, and cause; PartialOnSourceError completes the query
// without the dead source's tuples, with Result.IncompleteTables (and
// Rows.IncompleteTables, mid-stream) stating exactly what is missing —
// degraded results are annotated, never silently wrong. Recovery work is
// accounted in Result.Retries / WastedBytes / BreakerTransitions.
//
// Memory is governed, not hoped for. Options.MemBudget caps one query's
// tracked operator state (join tables, aggregation groups, distinct sets);
// under pressure the partitioned operators evict whole hash buckets to
// CRC-framed disk runs and merge them back after input-done, so a heavy
// query degrades to out-of-core execution with the same answer instead of
// OOMing — Result.PeakMemBytes / SpillBytes / SpillEvents report the
// high-water mark and spill activity. EngineConfig.MemBudget extends the
// same contract engine-wide: concurrent queries draw byte grants from one
// shared pool (waiting in admission when it runs dry), composing with
// MaxConcurrentQueries. A budget too small for even the maximum
// spill-merge fan-out fails with a typed *BudgetError; a panic inside an
// operator goroutine is contained to its query and surfaces as a typed
// *PanicError.
//
// Quick start — blocking execution:
//
//	cat := sip.GenerateTPCH(sip.DataConfig{ScaleFactor: 0.01})
//	eng := sip.NewEngine(cat)
//	res, err := eng.Query(ctx, `SELECT n_name, count(*) FROM supplier, nation
//	    WHERE s_nationkey = n_nationkey GROUP BY n_name`,
//	    sip.Options{Strategy: sip.FeedForward})
//
// Streaming — rows are delivered batch-at-a-time from the root operator
// with backpressure (a slow consumer stalls the pipeline instead of
// materializing the result), and Close cancels the query and reclaims
// every goroutine:
//
//	rows, err := eng.QueryStream(ctx, sql, sip.Options{})
//	defer rows.Close()
//	for rows.Next() {
//	    use(rows.Row())
//	}
//	err = rows.Err()
//
// Prepared statements — parse/bind/optimize once, execute many times with
// `?` placeholder arguments; the ad-hoc Query path gets the same benefit
// automatically from the engine's bounded plan cache:
//
//	stmt, err := eng.Prepare(ctx, `SELECT n_name FROM nation WHERE n_nationkey = ?`)
//	res, err := stmt.Query(ctx, sip.Int(7))
//
// The executor (internal/exec) runs one goroutine per operator input and per
// partition, glued by bounded channels, so a filter registered mid-query
// applies to every tuple that arrives after it.
package sip

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/types"
)

// Strategy selects the execution technique.
type Strategy int

// Execution strategies.
const (
	Baseline Strategy = iota
	Magic
	FeedForward
	CostBased
)

var strategyNames = map[Strategy]string{
	Baseline: "Baseline", Magic: "Magic",
	FeedForward: "Feed-forward", CostBased: "Cost-based",
}

// String returns the display name used in the paper's figures.
func (s Strategy) String() string { return strategyNames[s] }

// ParseStrategy returns the strategy whose display name (String) is name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sip: unknown strategy %q", name)
}

// AllStrategies lists every strategy in figure order.
func AllStrategies() []Strategy { return []Strategy{Baseline, Magic, FeedForward, CostBased} }

// Row is one result tuple.
type Row = types.Tuple

// Value is one SQL value.
type Value = types.Value

// Int builds an integer Value (prepared-statement arguments).
func Int(v int64) Value { return types.Int(v) }

// Float builds a float Value.
func Float(v float64) Value { return types.Float(v) }

// Str builds a string Value.
func Str(s string) Value { return types.Str(s) }

// Date builds a date Value from 'YYYY-MM-DD'.
func Date(s string) (Value, error) { return types.DateFromString(s) }

// Schema describes result columns.
type Schema = types.Schema

// Catalog holds the tables a query runs against.
type Catalog = catalog.Catalog

// DataConfig configures the built-in TPC-H generator.
type DataConfig = tpch.Config

// Topology models the network of a distributed run.
type Topology = network.Topology

// Link models one network connection.
type Link = network.Link

// DelayConfig reproduces the paper's slow-source model, extended with
// bursty pauses and fault injection for chaos testing.
type DelayConfig = exec.DelayConfig

// FaultProfile parameterizes deterministic fault injection: per-interaction
// drop / stall / transient-error / cut-after-N-bytes probabilities drawn
// from a seed, so chaos runs reproduce exactly.
type FaultProfile = network.FaultProfile

// RetryPolicy bounds the recovery machinery for remote and flaky sources:
// bounded retries, capped exponential backoff with jitter, per-attempt
// timeouts, and per-site circuit breakers. Zero fields mean defaults.
type RetryPolicy = network.RetryPolicy

// FailureMode selects what a query does when a source stays dead after
// recovery is exhausted.
type FailureMode = exec.FailureMode

// Failure modes for Options.OnSourceFailure.
const (
	// FailOnSourceError (default): the query fails with a *SourceError.
	FailOnSourceError = exec.FailOnSourceError
	// PartialOnSourceError: the query completes without the dead source's
	// remaining tuples; Result.IncompleteTables names what is missing.
	PartialOnSourceError = exec.PartialOnSourceError
)

// SourceError is the typed failure of a source that stayed dead through the
// recovery policy: it names the table, its site, how many attempts were
// made, and the final cause. Queries running with FailOnSourceError surface
// it from Query / Rows.Err (unwrap with errors.As).
type SourceError = exec.SourceError

// BudgetError is the typed failure of a query whose memory budget
// (Options.MemBudget or the engine pool's grant) is too small for even the
// maximum out-of-core spill-merge fan-out: it names the operator, the
// budget, and a lower bound on the bytes that would have been needed.
// Unwrap with errors.As.
type BudgetError = exec.BudgetError

// PanicError is the typed failure of a query one of whose operator
// goroutines panicked. The panic is contained to that query — the process
// and every other in-flight query keep running — and the recovered value
// plus the goroutine stack are preserved here. Unwrap with errors.As.
type PanicError = exec.PanicError

// SummaryKind selects the AIP-set representation (Bloom or hash set).
type SummaryKind = core.SummaryKind

// CostParams parameterize the Cost-Based AIP manager's model.
type CostParams = core.CostParams

// DefaultCostParams returns the cost-model calibration the experiments use.
func DefaultCostParams() CostParams { return core.DefaultCostParams() }

// AIP-set representations.
const (
	SummaryBloom   = core.SummaryBloom
	SummaryHashSet = core.SummaryHashSet
)

// Mbps converts megabits per second to bytes per second.
func Mbps(m float64) int64 { return network.Mbps(m) }

// NewTopology creates a network topology whose site pairs default to the
// given link.
func NewTopology(def *Link) *Topology { return network.NewTopology(def) }

// GenerateTPCH builds the TPC-H-shaped catalog (see internal/tpch).
func GenerateTPCH(cfg DataConfig) *Catalog { return tpch.Generate(cfg) }

// Options configure one query execution.
type Options struct {
	// Strategy selects the execution technique; zero value is Baseline.
	Strategy Strategy

	// FPR is the Bloom-filter false-positive target (default 5%, the
	// paper's setting).
	FPR float64

	// Summary selects Bloom filters (default) or exact hash sets.
	Summary SummaryKind

	// DelayedTables names base tables whose scans are delayed per Delay
	// (the paper delays PARTSUPP).
	DelayedTables []string
	// Delay is the delay model for DelayedTables; when nil the paper's
	// §VI-B parameters are used (100 ms initial, 5 ms per 1000 tuples).
	Delay *DelayConfig

	// RemoteTables maps base-table names to a site number (>0); their
	// scans execute remotely and ship results over the Topology.
	RemoteTables map[string]int
	// Topology models the links; required when RemoteTables is non-empty.
	// The default is a single 100 Mbps, 1 ms link (the paper's §VI-C
	// Ethernet).
	Topology *Topology

	// Cost overrides the Cost-Based manager's model constants.
	Cost *core.CostParams

	// Faults injects deterministic failures into the unreliable parts of
	// the query: the default topology's links (when Topology is nil) and
	// the scans of DelayedTables (unless Delay.Fault is already set). An
	// explicitly provided Topology keeps its own per-link fault profiles.
	// nil runs reliably.
	Faults *FaultProfile

	// Retry bounds the recovery policy applied to every remote or flaky
	// interaction: bounded retries with capped exponential backoff and
	// jitter, per-attempt timeouts, and per-site circuit breakers. Zero
	// fields mean the defaults (3 retries, 2s attempt timeout, 10ms–500ms
	// backoff ±20%, breaker at 5 consecutive failures with 500ms cooldown).
	Retry RetryPolicy

	// OnSourceFailure selects fail-fast (FailOnSourceError, the default:
	// the query fails with a typed *SourceError) or graceful degradation
	// (PartialOnSourceError: the query completes without the dead source's
	// tuples and Result.IncompleteTables says what is missing).
	OnSourceFailure FailureMode

	// Parallelism is the radix-partition fan-out of the stateful operators
	// (hash join, aggregation, distinct): how many cores one query's joins
	// and aggregations can saturate. Zero means runtime.GOMAXPROCS(0); the
	// executor rounds it down to a power of two, caps it at 64, and clamps
	// it by the optimizer's cardinality estimate so tiny inputs skip the
	// fan-out overhead. One reproduces the single-owner data path exactly.
	Parallelism int

	// MemBudget caps this query's tracked operator state (join tables,
	// aggregation groups, distinct sets) in bytes. Under pressure the
	// stateful operators evict whole hash buckets to disk runs and merge
	// them back after input-done, so the query degrades to out-of-core
	// execution instead of growing without bound; a budget too small for
	// even the maximum spill-merge fan-out fails with a typed *BudgetError.
	// Zero means unbounded — unless the engine runs with
	// EngineConfig.MemBudget, in which case the engine's per-query grant
	// applies (and a non-zero Options.MemBudget is capped by that grant).
	MemBudget int64
}

func (o Options) delay() *exec.DelayConfig {
	d := o.Delay
	if d == nil {
		d = &exec.DelayConfig{Initial: 100 * time.Millisecond, EveryN: 1000, Pause: 5 * time.Millisecond}
	}
	if o.Faults != nil && d.Fault == nil {
		dd := *d
		dd.Fault = o.Faults
		return &dd
	}
	return d
}

func (o Options) topology() *network.Topology {
	if o.Topology != nil {
		return o.Topology
	}
	return network.NewTopology(&network.Link{
		BytesPerSec: network.Mbps(100),
		Latency:     time.Millisecond,
		Faults:      o.Faults,
	})
}

// Result is the outcome of one query execution.
type Result struct {
	Rows   []Row
	Schema *Schema

	// Duration is wall-clock execution time (excluding parse/optimize).
	Duration time.Duration
	// PeakStateBytes is the intermediate-state high-water mark, the
	// quantity the paper's space-usage figures report.
	PeakStateBytes int64
	// FiltersCreated and FiltersInjected count AIP activity.
	FiltersCreated  int64
	FiltersInjected int64
	// TuplesPruned counts tuples dropped by injected filters.
	TuplesPruned int64
	// TuplesProcessed sums tuples received across all operators above the
	// scans: the engine's total processing volume. It shifts with plan shape (more
	// operators, more receipts), so it is not comparable across plans —
	// use TuplesScanned for a volume comparable across strategies.
	TuplesProcessed int64
	// TuplesScanned sums tuples read by base-table scans (before any
	// source-side selection): the query's input volume, comparable across
	// plan shapes and with BenchmarkJoin's input tuples/sec.
	TuplesScanned int64
	// NetworkBytes counts simulated network traffic.
	NetworkBytes int64

	// FilterBytes is the total memory allocated to AIP summaries: each
	// Feed-forward working set once, when allocated (it is published as it
	// stands), plus each summary built at publication; PeakFilterWorkingBytes
	// is the high-water mark of in-progress (not yet published) working sets
	// summed across operators.
	FilterBytes            int64
	PeakFilterWorkingBytes int64

	// Retries counts remote-interaction re-attempts the recovery layer
	// made; WastedBytes is the simulated bandwidth consumed by attempts
	// that failed; BreakerTransitions counts circuit-breaker state changes
	// across all sites. All zero for a fault-free run.
	Retries            int64
	WastedBytes        int64
	BreakerTransitions int64

	// PeakMemBytes is the high-water mark of the memory accountant's
	// tracked operator state — the quantity a MemBudget caps. SpillBytes
	// and SpillEvents count out-of-core activity: bytes written to spill
	// runs and whole-bucket evictions. All zero for an unbounded in-memory
	// run.
	PeakMemBytes int64
	SpillBytes   int64
	SpillEvents  int64

	// IncompleteTables lists the sources this result is missing (only under
	// OnSourceFailure: PartialOnSourceError): one SourceError per dead
	// table, sorted by table name. Empty means the result is complete.
	IncompleteTables []*SourceError

	// Stats exposes the full per-operator registry the scalar counters above
	// are read from; never nil.
	Stats *stats.Registry
}

// Complete reports whether the result covers every source (no tables were
// abandoned under PartialOnSourceError).
func (r *Result) Complete() bool { return len(r.IncompleteTables) == 0 }

// DefaultPlanCacheSize is the default capacity (in plans) of the engine's
// LRU plan cache.
const DefaultPlanCacheSize = 64

// EngineConfig tunes engine-wide behavior shared by all queries.
type EngineConfig struct {
	// PlanCacheSize bounds the engine's LRU plan cache (in cached plans).
	// Zero means DefaultPlanCacheSize; negative disables caching, so every
	// ad-hoc Query re-parses, re-binds, and re-optimizes.
	//
	// A cached plan snapshots the catalog state (table row slices,
	// statistics) at first use, exactly like a prepared statement snapshots
	// it at Prepare. Cache keys include the catalog version, which
	// Catalog.Add bumps on every table registration or replacement, so an
	// ad-hoc Query after a catalog change always recompiles against the new
	// contents; already-prepared statements keep their snapshot. Mutating a
	// *Table in place bypasses the version — replace tables through Add.
	PlanCacheSize int

	// MaxConcurrentQueries caps the number of queries executing at once;
	// further callers block in admission until a slot frees (or their
	// context is cancelled). Zero means unlimited.
	MaxConcurrentQueries int

	// MemBudget is an engine-wide memory pool (in bytes) shared by all
	// concurrently executing queries. Each query is granted a slice of the
	// pool at admission — half of it when running alone, shrinking as more
	// queries are admitted, never below 1/16th — and executes under that
	// grant exactly as if Options.MemBudget were set to it (spilling to
	// disk under pressure; see Options.MemBudget). When the free pool runs
	// dry, further queries wait in admission until a grant is released.
	// Composes with MaxConcurrentQueries, which bounds how many grants are
	// outstanding. Zero means no engine-wide governance: only per-query
	// Options.MemBudget applies.
	MemBudget int64

	// SlowQueryThreshold turns on the engine's slow-query log: every
	// execution (ad-hoc, streamed, or prepared) whose wall time meets or
	// exceeds the threshold is recorded — SQL text, duration, completion
	// time — in a bounded ring readable through Engine.SlowQueries, with a
	// monotonic total in Engine.SlowQueryCount. The serving tier surfaces
	// both on its /stats endpoint. Zero disables the log.
	SlowQueryThreshold time.Duration
}

// SlowQuery is one slow-query log entry: an execution whose wall time met
// EngineConfig.SlowQueryThreshold.
type SlowQuery struct {
	SQL      string
	Duration time.Duration
	At       time.Time // completion time
}

// slowLogSize bounds the slow-query ring; older entries are overwritten.
const slowLogSize = 64

// slowLog is the engine's bounded slow-query ring.
type slowLog struct {
	mu      sync.Mutex
	entries [slowLogSize]SlowQuery
	n       int   // valid entries (≤ slowLogSize)
	next    int   // ring write cursor
	total   int64 // all-time slow executions
}

func (l *slowLog) record(sql string, d time.Duration, at time.Time) {
	l.mu.Lock()
	l.entries[l.next] = SlowQuery{SQL: sql, Duration: d, At: at}
	l.next = (l.next + 1) % slowLogSize
	if l.n < slowLogSize {
		l.n++
	}
	l.total++
	l.mu.Unlock()
}

// snapshot returns the retained entries, most recent first.
func (l *slowLog) snapshot() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, l.n)
	for i := 1; i <= l.n; i++ {
		out = append(out, l.entries[(l.next-i+slowLogSize)%slowLogSize])
	}
	return out
}

// Engine executes queries against a catalog. It is safe for concurrent use:
// many goroutines may Query/QueryStream/Prepare on one engine at once, with
// admission bounded by EngineConfig.MaxConcurrentQueries.
type Engine struct {
	cat     *catalog.Catalog
	cache   *planCache    // nil when disabled
	sem     chan struct{} // nil when unlimited
	gov     *memGovernor  // nil when no engine-wide memory pool
	running atomic.Int64  // queries currently executing

	slowThresh time.Duration // 0 = slow-query log disabled
	slow       slowLog
}

// NewEngine creates an engine over the catalog with the default config.
func NewEngine(cat *Catalog) *Engine { return NewEngineWithConfig(cat, EngineConfig{}) }

// NewEngineWithConfig creates an engine with explicit limits.
func NewEngineWithConfig(cat *Catalog, cfg EngineConfig) *Engine {
	e := &Engine{cat: cat}
	size := cfg.PlanCacheSize
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	if size > 0 {
		e.cache = newPlanCache(size)
	}
	if cfg.MaxConcurrentQueries > 0 {
		e.sem = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	if cfg.MemBudget > 0 {
		e.gov = newMemGovernor(cfg.MemBudget)
	}
	e.slowThresh = cfg.SlowQueryThreshold
	return e
}

// SlowQueries returns the retained slow-query log entries, most recent
// first (empty when EngineConfig.SlowQueryThreshold is zero or nothing has
// crossed it).
func (e *Engine) SlowQueries() []SlowQuery { return e.slow.snapshot() }

// SlowQueryCount returns the all-time number of executions that crossed
// EngineConfig.SlowQueryThreshold, including entries the bounded log has
// since overwritten.
func (e *Engine) SlowQueryCount() int64 {
	e.slow.mu.Lock()
	defer e.slow.mu.Unlock()
	return e.slow.total
}

// RunningQueries reports how many queries are executing right now: admitted
// and not yet finished (the serving tier exports it as a gauge).
func (e *Engine) RunningQueries() int { return int(e.running.Load()) }

// GovernorStats is a snapshot of the engine-wide memory pool.
type GovernorStats struct {
	// TotalBytes is the configured pool size (EngineConfig.MemBudget);
	// zero means no engine-wide governance.
	TotalBytes int64
	// AvailableBytes is the currently ungranted remainder of the pool.
	AvailableBytes int64
	// Admitted is the number of queries holding grants right now.
	Admitted int
}

// GovernorStats returns the current memory-governor snapshot; the zero
// value when the engine runs without EngineConfig.MemBudget.
func (e *Engine) GovernorStats() GovernorStats {
	if e.gov == nil {
		return GovernorStats{}
	}
	return e.gov.stats()
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// FormatValueRounded renders a value, rounding floats to the given number
// of significant digits. Useful when comparing results across strategies:
// parallel plans accumulate floating-point aggregates in nondeterministic
// order, so the last few bits of a SUM legitimately vary.
func FormatValueRounded(v Value, digits int) string {
	if v.K == types.KindFloat {
		return strconv.FormatFloat(v.F, 'g', digits, 64)
	}
	return v.String()
}

// FormatRows renders rows as a simple table for the examples and CLI.
func FormatRows(sch *Schema, rows []Row, limit int) string {
	var sb strings.Builder
	for i, c := range sch.Cols {
		if i > 0 {
			sb.WriteString("\t")
		}
		sb.WriteString(c.Name)
	}
	sb.WriteString("\n")
	for i, r := range rows {
		if limit > 0 && i >= limit {
			fmt.Fprintf(&sb, "... (%d more rows)\n", len(rows)-limit)
			break
		}
		for j, v := range r {
			if j > 0 {
				sb.WriteString("\t")
			}
			sb.WriteString(v.String())
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
