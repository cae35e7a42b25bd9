package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/network"
	"repro/internal/stats"
)

// FailureMode selects what the engine does when a source stays dead after
// the recovery policy is exhausted.
type FailureMode int

const (
	// FailOnSourceError (the default): the query is cancelled with a typed
	// *SourceError naming the dead source; Run / Rows.Err surface it.
	FailOnSourceError FailureMode = iota
	// PartialOnSourceError: the query completes without the dead source's
	// remaining tuples. The affected base tables are reported as incomplete
	// (Context.IncompleteSources, surfaced on the public Result/Rows), and
	// every injection point fed by them is marked state-incomplete so the
	// AIP controllers never publish a partial input as a complete set —
	// degraded results may miss tuples but are never silently wrong about
	// what they pruned.
	PartialOnSourceError
)

// String names the mode.
func (m FailureMode) String() string {
	if m == PartialOnSourceError {
		return "partial"
	}
	return "fail"
}

// SourceError reports a source that stayed dead through the whole recovery
// policy: every attempt (including retries) failed, or its site's circuit
// breaker kept rejecting. It is the typed failure of FailOnSourceError and
// the per-table annotation of PartialOnSourceError.
type SourceError struct {
	Table    string // base table whose stream failed
	Site     int    // executing site (0 = master)
	Attempts int    // attempts made before giving up
	Cause    error  // the last attempt's error
}

// Error renders the failure.
func (e *SourceError) Error() string {
	return fmt.Sprintf("source %q at site %d failed after %d attempts: %v",
		e.Table, e.Site, e.Attempts, e.Cause)
}

// Unwrap exposes the last attempt's error to errors.Is/As.
func (e *SourceError) Unwrap() error { return e.Cause }

// ErrAttemptTimeout reports one attempt abandoned by the per-attempt
// timeout. It is retryable: the next attempt may find the source healthy.
var ErrAttemptTimeout = errors.New("exec: attempt timed out")

// Recovery is the per-query recovery configuration carried on the Context.
// The zero value retries with the default policy and fails the query on an
// exhausted source.
type Recovery struct {
	// Policy bounds the attempt loop of every remote interaction. Zero
	// fields mean their network.RetryPolicy defaults.
	Policy network.RetryPolicy
	// Breakers holds the per-site circuit breakers; nil disables breaking.
	// Sharing one set across queries carries breaker state (an open site
	// stays open) into subsequent queries, serving-tier style.
	Breakers *network.BreakerSet
	// Mode selects fail-fast or graceful partial results.
	Mode FailureMode
}

// sourceFailure is one recorded dead source (PartialOnSourceError).
type sourceFailure struct {
	err *SourceError
}

// Spawn runs f on a tracked goroutine. Every operator goroutine of a query
// must go through Spawn so Wait can prove quiescence: the cursor reads the
// error, removes the spill directory and finalizes the stats only after
// Wait, when no goroutine can still touch them.
//
// A panic inside f is contained to the query: f's own deferred cleanup
// (channel closes, WaitGroup decrements) runs during the unwind, then the
// recover here cancels the query with a typed *PanicError — the process
// and every other in-flight query keep running, and the failed query's
// remaining goroutines drain through the normal cancellation paths.
func (c *Context) Spawn(f func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				c.CancelCause(&PanicError{Val: r, Stack: debug.Stack()})
			}
		}()
		f()
	}()
}

// Wait blocks until every goroutine started via Spawn has exited. Valid
// only after the plan's output channel closed (operators exit on EOF or
// cancellation; Wait does not itself cancel anything).
func (c *Context) Wait() { c.wg.Wait() }

// FailSource records that a source stayed dead after recovery was
// exhausted. Under FailOnSourceError it cancels the query with the typed
// error; under PartialOnSourceError it marks the table incomplete, flags
// every injection point fed by the table as state-incomplete (so AIP
// controllers never treat partial state as a complete set), and abandons
// the table's scans so they stop producing promptly.
func (c *Context) FailSource(err *SourceError) {
	if c.Recovery.Mode != PartialOnSourceError {
		c.CancelCause(err)
		return
	}
	c.incMu.Lock()
	if c.incomplete == nil {
		c.incomplete = make(map[string]*SourceError)
	}
	if _, dup := c.incomplete[err.Table]; !dup {
		c.incomplete[err.Table] = err
	}
	c.incMu.Unlock()
	for _, p := range c.Points() {
		for _, t := range p.Tables {
			if t == err.Table {
				p.stateIncomplete.Store(true)
				break
			}
		}
	}
}

// SourceAbandoned reports whether a table's stream has been given up on
// (PartialOnSourceError); its scans stop producing once they observe it.
func (c *Context) SourceAbandoned(table string) bool {
	c.incMu.Lock()
	defer c.incMu.Unlock()
	_, ok := c.incomplete[table]
	return ok
}

// IncompleteSources returns the dead sources a partial-mode query completed
// without, sorted by table name. Empty for complete results.
func (c *Context) IncompleteSources() []*SourceError {
	c.incMu.Lock()
	defer c.incMu.Unlock()
	if len(c.incomplete) == 0 {
		return nil
	}
	out := make([]*SourceError, 0, len(c.incomplete))
	for _, e := range c.incomplete {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// FilterShipper returns a filter-transfer hook bound to this context: each
// call ships nbytes over link under the query's recovery policy (per-site
// breaker, per-attempt timeout, backoff), accounting attempts, retries, and
// wasted bytes on op. The engine installs it as the AIP controllers'
// shipping hook so remote filter shipments share the query's retry
// machinery. Calls serialize on an internal lock — filter shipments are
// rare, and serializing keeps the retry state deterministic.
func (c *Context) FilterShipper(op *stats.OpStats) func(link *network.Link, site int, nbytes int) error {
	var mu sync.Mutex
	retriers := map[int]*retrier{}
	return func(link *network.Link, site int, nbytes int) error {
		if !link.Faults.Active() && c.Recovery.Breakers == nil {
			// Reliable link, no breakers: only cancellation can interrupt.
			return link.Transfer(nbytes, c.Cancelled())
		}
		mu.Lock()
		defer mu.Unlock()
		ret := retriers[site]
		if ret == nil {
			ret = newRetrier(c, op, site, fmt.Sprintf("aipfilter:%d", site))
			retriers[site] = ret
		}
		return ret.do(func(stop <-chan struct{}) error {
			err := link.Transfer(nbytes, stop)
			var fe *network.FaultError
			if errors.As(err, &fe) && fe.Sent > 0 {
				op.WastedBytes.Add(int64(fe.Sent))
			}
			return err
		})
	}
}

// retrySeed mixes the policy seed with a stream name so every retry loop
// jitters deterministically but differently.
func retrySeed(seed int64, stream string) int64 {
	for _, c := range []byte(stream) {
		seed = seed*131 + int64(c)
	}
	return seed
}

// retrier drives the attempt loop of one logical stream's remote
// interactions: breaker gating, per-attempt timeout, capped backoff with
// jitter, and stats. One retrier per operator goroutine; not concurrency-
// safe (each stream retries on its own).
type retrier struct {
	ctx      *Context
	op       *stats.OpStats
	pol      network.RetryPolicy
	breaker  *network.Breaker
	rng      *rand.Rand
	attempts int // total attempts across the stream (SourceError.Attempts)
}

// newRetrier builds the retry driver for one stream (a scan or ship
// instance). stream seeds the backoff jitter deterministically.
func newRetrier(ctx *Context, op *stats.OpStats, site int, stream string) *retrier {
	pol := ctx.Recovery.Policy.WithDefaults()
	r := &retrier{ctx: ctx, op: op, pol: pol}
	if ctx.Recovery.Breakers != nil {
		r.breaker = ctx.Recovery.Breakers.For(site)
	}
	if pol.Jitter > 0 {
		r.rng = rand.New(rand.NewSource(retrySeed(pol.Seed, stream)))
	}
	return r
}

// attemptStop builds the stop channel for one attempt: it closes when the
// per-attempt timeout fires or the query is cancelled. finish tears the
// plumbing down and reports whether the timeout (not cancellation) fired.
// With no timeout configured the query's own cancel channel is used
// directly and no goroutine or timer is allocated.
func (r *retrier) attemptStop() (stop <-chan struct{}, finish func() bool) {
	if r.pol.AttemptTimeout <= 0 {
		return r.ctx.Cancelled(), func() bool { return false }
	}
	ch := make(chan struct{})
	var once sync.Once
	closeCh := func() { once.Do(func() { close(ch) }) }
	var timedOut atomic.Bool
	timer := time.AfterFunc(r.pol.AttemptTimeout, func() {
		timedOut.Store(true)
		closeCh()
	})
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-r.ctx.Cancelled():
			closeCh()
		case <-quit:
		}
	}()
	return ch, func() bool {
		timer.Stop()
		close(quit)
		<-done
		return timedOut.Load() && r.ctx.Err() == nil
	}
}

// do runs attempt under the recovery policy. attempt receives a stop
// channel (per-attempt timeout merged with query cancellation) and returns
// nil on success or the attempt's error; network.ErrCancelled from a
// timed-out attempt is converted to the retryable ErrAttemptTimeout.
//
// do returns nil on success, network.ErrCancelled when the query was
// cancelled, or the last attempt's error once retries are exhausted (the
// caller wraps it in a SourceError / fails the interaction).
func (r *retrier) do(attempt func(stop <-chan struct{}) error) error {
	var lastErr error
	for try := 0; ; try++ {
		select {
		case <-r.ctx.Cancelled():
			return network.ErrCancelled
		default:
		}
		var err error
		if r.breaker != nil && !r.breaker.Allow(time.Now()) {
			err = network.ErrBreakerOpen
		} else {
			r.attempts++
			r.op.Attempts.Inc()
			stop, finish := r.attemptStop()
			err = attempt(stop)
			if timedOut := finish(); timedOut && errors.Is(err, network.ErrCancelled) {
				err = ErrAttemptTimeout
			}
			if r.breaker != nil {
				if err == nil {
					r.breaker.Success()
				} else if !errors.Is(err, network.ErrCancelled) {
					r.breaker.Failure(time.Now())
				}
			}
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, network.ErrCancelled) {
			return network.ErrCancelled
		}
		lastErr = err
		if try >= r.pol.MaxRetries {
			return lastErr
		}
		r.op.Retries.Inc()
		// Interruptible backoff: cancellation mid-backoff returns promptly
		// instead of sleeping the delay out.
		if d := r.pol.Backoff(try, r.rng); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-r.ctx.Cancelled():
				t.Stop()
				return network.ErrCancelled
			}
		}
	}
}
