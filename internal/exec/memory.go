package exec

import (
	"fmt"
	"os"

	"repro/internal/spill"
	"repro/internal/stats"
)

// Memory accounting and the spill-file lifecycle for one query.
//
// Every partitioned stateful operator accounts its state bytes — KeyTable
// footprint, buffered tuple arenas, aggregation group columns — through
// Context.account as it grows and shrinks, unconditionally (an unbounded
// run pays the same few atomic adds, and its measured peak is what the
// oracle's quarter-peak budgets derive from). Under a positive MemBudget
// the operators additionally consult memPressure after each batch of
// growth and run the bucket-discard eviction when it fires.

// account adds delta (possibly negative) to the query's tracked state bytes
// and maintains the high-water mark.
func (c *Context) account(delta int64) {
	cur := c.tracked.Add(delta)
	for {
		peak := c.trackedPeak.Load()
		if cur <= peak || c.trackedPeak.CompareAndSwap(peak, cur) {
			return
		}
	}
}

// TrackedBytes returns the currently accounted operator-state bytes: zero
// again once a query has finished, since every stateful operator releases
// what its partitions still hold when its workers have exited.
func (c *Context) TrackedBytes() int64 { return c.tracked.Load() }

// PeakTrackedBytes returns the high-water mark of accounted state bytes.
func (c *Context) PeakTrackedBytes() int64 { return c.trackedPeak.Load() }

// SpillBytes returns the total bytes written to spill runs.
func (c *Context) SpillBytes() int64 { return c.spillBytes.Load() }

// SpillEvents returns the number of bucket-discard evictions.
func (c *Context) SpillEvents() int64 { return c.spillEvents.Load() }

// noteEviction records one bucket-discard eviction of op.
func (c *Context) noteEviction(op *stats.OpStats) {
	c.spillEvents.Add(1)
	op.SpillEvents.Inc()
}

// ensureRun creates *run, unless it exists, in the query's spill directory.
// Every frame the run writes counts toward the query's and op's SpillBytes,
// so they are the bytes written to every run, whichever call cut the frame.
func (c *Context) ensureRun(run **spill.Run, pattern string, op *stats.OpStats) error {
	if *run != nil {
		return nil
	}
	dir, err := c.SpillDir()
	if err != nil {
		return err
	}
	r, err := spill.NewRun(dir, pattern)
	if err != nil {
		return err
	}
	r.OnWrite = func(n int64) {
		c.spillBytes.Add(n)
		op.SpillBytes.Add(n)
	}
	*run = r
	return nil
}

// readRun opens a pass over run, hands it to pass, and counts the frame
// bytes it read toward op's SpillRead.
func readRun(run *spill.Run, op *stats.OpStats, pass func(rd *spill.Reader) error) error {
	rd, err := run.Reader()
	if err != nil {
		return err
	}
	err = pass(rd)
	op.SpillRead.Add(rd.Bytes())
	rd.Close()
	return err
}

// subBucket is the merge sub-bucket of hash h among F (a power of two): its
// middle bits — the top bits picked the partition and the low bits index a
// KeyTable's slots.
func subBucket(h uint64, F int) int { return int((h >> 32) & uint64(F-1)) }

// addMemParts registers n budget-accounted partitions: every stateful
// operator (join, aggregation, distinct) declares its partition count at
// start so memPressure can size the eviction floor against the plan's
// total number of state holders, not just one operator's.
func (c *Context) addMemParts(n int) { c.memParts.Add(int64(n)) }

// memPressure reports whether a partition holding partBytes of state should
// evict: the query is over budget AND this partition holds a meaningful
// share. The floor — budget/(2·totalParts), over every registered stateful
// partition in the plan — is pigeonhole-sound: if every partition were
// under it, the query would be under half its budget, so whenever tracked
// exceeds the budget at least one partition qualifies, and tiny partitions
// never thrash through pointless evictions. parts is the caller's own
// count, a fallback for contexts whose operators never registered.
func (c *Context) memPressure(partBytes int64, parts int) bool {
	b := c.MemBudget
	if b <= 0 || c.tracked.Load() <= b {
		return false
	}
	if total := c.memParts.Load(); total > int64(parts) {
		parts = int(total)
	}
	floor := b / int64(2*parts)
	return partBytes >= floor
}

// mergeShare is the per-pass state allowance of a spill merge: budget/4,
// leaving room for the partitions still buffering plus the merge table
// itself.
func (c *Context) mergeShare() int64 {
	if c.MemBudget <= 0 {
		return 1 << 62
	}
	s := c.MemBudget / 4
	if s < 1 {
		s = 1
	}
	return s
}

// SpillDir returns the query's spill directory, creating it on first use.
func (c *Context) SpillDir() (string, error) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spillDir == "" {
		dir, err := os.MkdirTemp("", "sipspill-")
		if err != nil {
			return "", fmt.Errorf("exec: spill dir: %w", err)
		}
		c.spillDir = dir
	}
	return c.spillDir, nil
}

// Cleanup removes the query's spill directory and everything in it. Call
// after every operator goroutine has exited; safe to call when nothing
// spilled, and more than once.
func (c *Context) Cleanup() {
	c.spillMu.Lock()
	dir := c.spillDir
	c.spillDir = ""
	c.spillMu.Unlock()
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// BudgetError is the typed failure of a query whose MemBudget is too small
// for the spill merge phase to converge: even the maximum sub-bucket
// fan-out cannot fit one merge pass of Op's state into the budget's merge
// share. The query fails promptly with this error instead of thrashing.
type BudgetError struct {
	Op     string // operator whose merge could not fit
	Budget int64  // the configured MemBudget
	Need   int64  // smallest budget the merge would have accepted
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("exec: memory budget %d B too small for %s spill merge (need ≥ %d B)",
		e.Budget, e.Op, e.Need)
}

// PanicError wraps a panic recovered inside a query's operator goroutines:
// the query fails with this typed error while the process (and every other
// in-flight query) keeps running.
type PanicError struct {
	Val   any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: query panicked: %v", e.Val)
}
