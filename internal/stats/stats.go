// Package stats provides the runtime instrumentation the paper's engine
// exposes: per-operator cardinality counters (§V-A, "all query operators are
// supplemented with cardinality counters") and intermediate-state accounting
// used to reproduce the space-usage figures (7, 8, 11, 12, 14).
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge tracks a current value and its high-water mark.
type Gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add moves the gauge by delta (which may be negative) and updates the peak.
func (g *Gauge) Add(delta int64) {
	n := g.cur.Add(delta)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

// Current returns the present value.
func (g *Gauge) Current() int64 { return g.cur.Load() }

// Peak returns the high-water mark.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// FilterKind names an AIP summary representation.
type FilterKind uint32

// The summary kinds, as bits of OpStats' published-summary kind set.
const (
	FilterBloom FilterKind = 1 << iota
	FilterBitmap
	FilterHashSet
)

var filterKindNames = [...]string{"bloom", "bitmap", "hashset"}

// AddFilter accounts one published summary of the given kind and size built
// from this operator's state.
func (o *OpStats) AddFilter(kind FilterKind, bytes int) {
	o.FilterBytes.Add(int64(bytes))
	o.filterKinds.Or(uint32(kind))
}

// FilterKinds names the kinds of the summaries AddFilter accounted, joined
// by '+' ("bitmap", "bloom", "bloom+bitmap"); empty when there were none.
func (o *OpStats) FilterKinds() string {
	k := o.filterKinds.Load()
	var names []string
	for i, n := range filterKindNames {
		if k&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, "+")
}

// PartStats is one partition's contribution to a partitioned operator's
// buffered state. The totals are still folded into the owning OpStats
// (StateRows/StateBytes); the per-partition breakdown exposes radix skew.
type PartStats struct {
	Rows  Counter // tuples buffered by this partition
	Bytes Counter // bytes buffered by this partition
}

// OpStats is the per-operator instrumentation block. Operators update it as
// they run; the AIP Manager and the figure harness read it.
type OpStats struct {
	Name  string
	Class string // operator kind, the Name prefix before ':' (scan, join, agg, …)

	In         Counter // tuples received
	Out        Counter // tuples emitted
	Pruned     Counter // tuples dropped by injected AIP filters
	PreFilter  Counter // tuples received under an AIP controller while no filter was attached yet
	StateRows  Counter // tuples buffered into operator state
	StateBytes Gauge   // bytes of buffered state (current/peak)

	// FilterBytes counts bytes of published AIP summaries built from this
	// operator's state; FilterWorking tracks the in-progress working-set
	// bytes while those summaries are being built (current/peak), released
	// when the working sets are published or dropped at PointDone.
	FilterBytes   Counter
	FilterWorking Gauge
	filterKinds   atomic.Uint32 // FilterKind bits of those summaries

	Attempts    Counter // remote interactions attempted (first tries + retries)
	Retries     Counter // re-attempts after a failed remote interaction
	WastedBytes Counter // modeled bytes consumed by attempts that failed

	// SpillBytes counts bytes this operator wrote to spill runs under memory
	// pressure, SpillRead the bytes its merge read back from them, and
	// SpillEvents its bucket-discard evictions. Partitioned two-input
	// operators (the join) carry all three on their left-side block.
	SpillBytes  Counter
	SpillRead   Counter
	SpillEvents Counter

	// Direct counts the partition key tables of this input that installed a
	// direct index over their key column's range (types.KeyTable.Range),
	// again after each eviction that dropped one.
	Direct Counter

	// WordBatches and ByteBatches count the batches a router keyed for an
	// input of a partitioned operator as integer words and as canonical
	// bytes (a batch holding a key value that is not integer-backed).
	WordBatches, ByteBatches Counter

	// AtSource counts, on a join input, the rows its routing scan probed at
	// the source: looked up in the sibling's finished tables by the scan's
	// chunk workers, never sent to a partition worker.
	AtSource Counter

	// Routed names, on a scan that routed for its consumer (hashing keys
	// from the column vectors and scattering row ids straight to the
	// partition workers), the consumer input's stats block; empty otherwise.
	Routed string

	// Waited is how long a scan held its first chunk for start order, and
	// WaitedFor the stats blocks of the inputs it waited for; set once, by the
	// scan's goroutine, before its first row.
	Waited    time.Duration
	WaitedFor []string

	// Waits lists, on a wired scan, the run's wait-graph edges out of the
	// input it feeds: each accepted wait with its kind and the ranks that
	// chose it, then each refused one with the cycle it would have closed.
	// Set once, by the scan's goroutine, before its first row.
	Waits []string

	// Typed counts, on a scan that evaluates pushed conjuncts, those that ran
	// on a typed column kernel, Coded those of them over dictionary codes,
	// and Conjuncts all of them; set once, by the scan's goroutine, before
	// its first row.
	Typed, Coded, Conjuncts int

	// RunProbes counts the chunks a scan probed its consumer's bitmap over
	// as a run: every lane live, so the probe read no selection.
	RunProbes Counter

	// Cols and Width are set on a join side: the columns it contributes to
	// the join's emitted row out of the columns it receives (0/0 otherwise).
	Cols, Width int

	// EstRows is the optimizer's estimate of In on a join or aggregation
	// input (exec.Point.EstRows); 0 elsewhere.
	EstRows float64

	parts []PartStats // per-partition state counters; nil for unpartitioned ops
}

// SetPartitions sizes the per-partition counter blocks. Partitioned
// operators call it once at Start, before any worker runs.
func (o *OpStats) SetPartitions(n int) {
	if n > 0 {
		o.parts = make([]PartStats, n)
	}
}

// Part returns partition i's counter block; SetPartitions must have covered i.
func (o *OpStats) Part(i int) *PartStats { return &o.parts[i] }

// Partitions returns the partition fan-out (0 for unpartitioned operators).
func (o *OpStats) Partitions() int { return len(o.parts) }

// PartitionSkew summarizes radix balance: the largest and the mean
// per-partition buffered row count. A max far above the mean means the key
// distribution defeated the radix split. Returns zeros when unpartitioned.
func (o *OpStats) PartitionSkew() (maxRows, meanRows int64) {
	if len(o.parts) == 0 {
		return 0, 0
	}
	var total int64
	for i := range o.parts {
		r := o.parts[i].Rows.Load()
		total += r
		if r > maxRows {
			maxRows = r
		}
	}
	return maxRows, total / int64(len(o.parts))
}

// Registry aggregates the OpStats of one query execution.
type Registry struct {
	mu  sync.Mutex
	ops []*OpStats

	FilterBytes        Counter // memory spent on AIP summary structures
	FiltersMade        Counter // AIP sets constructed
	FiltersBitmap      Counter // of which, exact bitmaps over integer domains
	FiltersUsed        Counter // filter injections performed
	NetworkBytes       Counter // bytes shipped across simulated links
	FilterNetWork      Counter // of which, AIP filter payloads
	BreakerTransitions Counter // circuit-breaker state changes across sites

	// SchedMorsels and SchedSteals counted the work-stealing engine's pool
	// tasks; that engine is gone and they always read zero. The benchmark
	// runner (bench/layers.go) still reports them as sched.* metrics, and a
	// benchmark-only change removes them together with those rows.
	SchedMorsels Counter
	SchedSteals  Counter
}

// NewRegistry creates an empty stats registry.
func NewRegistry() *Registry { return &Registry{} }

// SchedBusy reported the work-stealing pool's width and per-worker busy
// times; like SchedMorsels it is kept, always zero, for bench/layers.go.
func (r *Registry) SchedBusy() (workers int, busy []time.Duration) { return 0, nil }

// NewOp registers and returns a stats block for a named operator. The
// operator class is derived from the conventional "kind:name" form.
func (r *Registry) NewOp(name string) *OpStats {
	op := &OpStats{Name: name}
	if i := strings.IndexByte(name, ':'); i > 0 {
		op.Class = name[:i]
	}
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
	return op
}

// Ops returns a snapshot of the registered operator blocks.
func (r *Registry) Ops() []*OpStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*OpStats, len(r.ops))
	copy(out, r.ops)
	return out
}

// PeakStateBytes totals the per-operator state high-water marks plus AIP
// summary memory: the "intermediate state" series of the space figures.
func (r *Registry) PeakStateBytes() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.StateBytes.Peak()
	}
	return total + r.FilterBytes.Load()
}

// PeakFilterWorkingBytes totals the per-operator high-water marks of
// in-progress AIP working-set memory: the transient cost of building
// summaries before they are published.
func (r *Registry) PeakFilterWorkingBytes() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.FilterWorking.Peak()
	}
	return total
}

// TotalIn sums tuples received across all operators above the scans: the
// engine's total tuple-processing volume, the numerator of benchmark
// tuples/sec. (A scan's In is the rows it read, which TotalScanned reports.)
func (r *Registry) TotalIn() int64 {
	var total int64
	for _, op := range r.Ops() {
		if op.Class != "scan" {
			total += op.In.Load()
		}
	}
	return total
}

// TotalScanned sums tuples read by base-table scans (their In; Out is what
// survived source-side selection): the query's input volume, comparable
// across plan shapes and strategies and with BenchmarkJoin's input
// tuples/sec (unlike TotalIn, which shifts with operator count).
func (r *Registry) TotalScanned() int64 {
	var total int64
	for _, op := range r.Ops() {
		if op.Class == "scan" {
			total += op.In.Load()
		}
	}
	return total
}

// TotalPruned sums tuples dropped by AIP filters across operators.
func (r *Registry) TotalPruned() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.Pruned.Load()
	}
	return total
}

// TotalRetries sums remote-interaction re-attempts across operators.
func (r *Registry) TotalRetries() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.Retries.Load()
	}
	return total
}

// TotalWastedBytes sums the modeled bytes consumed by failed remote
// attempts across operators — bandwidth the recovery layer burned.
func (r *Registry) TotalWastedBytes() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.WastedBytes.Load()
	}
	return total
}

// TotalSpillBytes sums bytes written to spill runs across operators.
func (r *Registry) TotalSpillBytes() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.SpillBytes.Load()
	}
	return total
}

// TotalSpillEvents sums bucket-discard evictions across operators.
func (r *Registry) TotalSpillEvents() int64 {
	var total int64
	for _, op := range r.Ops() {
		total += op.SpillEvents.Load()
	}
	return total
}

// JoinQError summarizes how far the optimizer's estimates lie from what the
// join inputs received: over every join input with an estimate, the median
// and the largest q-error max(est, in) / min(est, in), each side floored at
// one row.
func (r *Registry) JoinQError() (n int, median, maxQ float64) {
	var qs []float64
	for _, op := range r.Ops() {
		if op.Class != "join" || op.EstRows <= 0 {
			continue
		}
		est, in := max(op.EstRows, 1), max(float64(op.In.Load()), 1)
		qs = append(qs, max(est, in)/min(est, in))
	}
	if len(qs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(qs)
	median = qs[len(qs)/2]
	if len(qs)%2 == 0 {
		median = (qs[len(qs)/2-1] + median) / 2
	}
	return len(qs), median, qs[len(qs)-1]
}

// Report renders a per-operator table, sorted by name, for debugging and
// the CLI's -v mode.
func (r *Registry) Report() string {
	ops := r.Ops()
	sort.Slice(ops, func(i, j int) bool { return ops[i].Name < ops[j].Name })
	out := fmt.Sprintf("%-40s %10s %10s %10s %10s %12s %s\n", "operator", "in", "est", "out", "pruned", "state-peak", "partitions")
	for _, op := range ops {
		est := ""
		if op.EstRows > 0 {
			est = fmt.Sprintf("est=%.0f", op.EstRows)
		}
		parts := ""
		if n := op.Partitions(); n > 0 {
			mx, mean := op.PartitionSkew()
			parts = fmt.Sprintf("P=%d max/mean=%d/%d", n, mx, mean)
		}
		if op.Routed != "" {
			parts += "routed→" + op.Routed
		}
		if len(op.WaitedFor) > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("waited=%.2fms→%s", float64(op.Waited)/float64(time.Millisecond), strings.Join(op.WaitedFor, ","))
		}
		if len(op.Waits) > 0 {
			if parts != "" {
				parts += " "
			}
			parts += "waits=[" + strings.Join(op.Waits, " ") + "]"
		}
		if op.Conjuncts > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("typed=%d/%d", op.Typed, op.Conjuncts)
		}
		if op.Width > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("cols=%d/%d", op.Cols, op.Width)
		}
		if n := op.AtSource.Load(); n > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("at-source=%d", n)
		}
		if pf := op.PreFilter.Load(); pf > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("pre-filter=%d", pf)
		}
		if a := op.Attempts.Load(); a > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("attempts=%d retries=%d wasted=%dB",
				a, op.Retries.Load(), op.WastedBytes.Load())
		}
		if fb, fw := op.FilterBytes.Load(), op.FilterWorking.Peak(); fb > 0 || fw > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("filter=%dB", fb)
			if k := op.FilterKinds(); k != "" {
				parts += " " + k
			}
			parts += fmt.Sprintf(" work-peak=%dB", fw)
		}
		if se := op.SpillEvents.Load(); se > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("spills=%d spill-bytes=%dB spill-read=%dB", se, op.SpillBytes.Load(), op.SpillRead.Load())
		}
		if d := op.Direct.Load(); d > 0 {
			if parts != "" {
				parts += " "
			}
			parts += fmt.Sprintf("direct=%d", d)
		}
		out += fmt.Sprintf("%-40s %10d %10s %10d %10d %12d %s\n",
			op.Name, op.In.Load(), est, op.Out.Load(), op.Pruned.Load(), op.StateBytes.Peak(), parts)
	}
	if n, med, mx := r.JoinQError(); n > 0 {
		out += fmt.Sprintf("q-error: join inputs=%d median=%.2f max=%.2f\n", n, med, mx)
	}
	made := fmt.Sprint(r.FiltersMade.Load())
	if n := r.FiltersBitmap.Load(); n > 0 {
		made += fmt.Sprintf(" (bitmap %d)", n)
	}
	out += fmt.Sprintf("filters: made=%s used=%d bytes=%d work-peak=%d; network bytes=%d (filters %d)\n",
		made, r.FiltersUsed.Load(), r.FilterBytes.Load(),
		r.PeakFilterWorkingBytes(), r.NetworkBytes.Load(), r.FilterNetWork.Load())
	if t := r.BreakerTransitions.Load() + r.TotalRetries(); t > 0 {
		out += fmt.Sprintf("recovery: retries=%d wasted-bytes=%d breaker-transitions=%d\n",
			r.TotalRetries(), r.TotalWastedBytes(), r.BreakerTransitions.Load())
	}
	if se := r.TotalSpillEvents(); se > 0 {
		out += fmt.Sprintf("spill: events=%d bytes=%d\n", se, r.TotalSpillBytes())
	}
	return out
}
