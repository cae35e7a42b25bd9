package sip

// Chaos suite for the fault-injected source layer: deterministic (seeded)
// fault profiles on remote links and delayed scans, exercised against the
// recovery policy (retries, per-attempt timeouts, backoff, breakers) and
// both failure modes. The acceptance invariant, per run: the query either
// completes with results identical to a fault-free run, completes Partial
// with an accurate Result.IncompleteTables annotation and a row subset, or
// fails with a typed *SourceError — never a hang, a silent truncation, or a
// goroutine leak.
//
// The fixed-seed tests below run in tier-1 (`go test .`); the full
// seeds × profiles × modes × strategies matrix is gated behind SIP_CHAOS=1
// (`make chaos` runs it under -race).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// chaosSQL is a pure select-project-join query (no aggregation), so a
// partial run's rows are necessarily a sub-multiset of the fault-free rows.
const chaosSQL = `
	SELECT s_name, ps_availqty FROM supplier, partsupp
	WHERE s_suppkey = ps_suppkey AND ps_availqty < 500`

// fastRetry keeps backoff short so dead-source tests spend milliseconds,
// not the default half-second caps.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     5 * time.Millisecond,
		AttemptTimeout: 250 * time.Millisecond,
	}
}

// TestChaosSmokeRemoteTransient: a flaky remote link (transient failures at
// a rate retries comfortably absorb) must not change the answer, and the
// recovery counters must show the absorbed faults.
func TestChaosSmokeRemoteTransient(t *testing.T) {
	e := testEngine(t)
	base := canon(mustRows(t, e, chaosSQL, Options{}))

	res, err := e.Query(context.Background(), chaosSQL, Options{
		RemoteTables: map[string]int{"partsupp": 1},
		Faults:       &FaultProfile{Seed: 7, TransientRate: 0.2},
		Retry:        fastRetry(),
	})
	if err != nil {
		t.Fatalf("transient faults were not absorbed by retries: %v", err)
	}
	if got := canon(res.Rows); len(got) != len(base) {
		t.Fatalf("faulty run returned %d rows, fault-free %d", len(got), len(base))
	} else {
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("faulty run row %d = %q, fault-free %q", i, got[i], base[i])
			}
		}
	}
	if !res.Complete() {
		t.Fatalf("recovered run marked incomplete: %+v", res.IncompleteTables[0])
	}
	if res.Retries == 0 {
		t.Fatal("seeded transient profile produced no retries")
	}
}

// TestChaosSmokeFailMode: a source that stays dead through the whole retry
// budget surfaces a typed *SourceError naming the table, site, and attempt
// count — under the default FailOnSourceError mode.
func TestChaosSmokeFailMode(t *testing.T) {
	e := testEngine(t)
	base := runtime.NumGoroutine()

	res, err := e.Query(context.Background(), chaosSQL, Options{
		DelayedTables: []string{"partsupp"},
		Delay:         &DelayConfig{Initial: time.Millisecond},
		Faults:        &FaultProfile{Seed: 1, TransientRate: 1},
		Retry:         fastRetry(),
	})
	if err == nil {
		t.Fatalf("permanently dead source did not fail the query (got %d rows)", len(res.Rows))
	}
	var se *SourceError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *SourceError", err, err)
	}
	if se.Table != "partsupp" {
		t.Fatalf("SourceError.Table = %q, want partsupp", se.Table)
	}
	if se.Attempts != 4 { // 1 try + default 3 retries
		t.Fatalf("SourceError.Attempts = %d, want 4", se.Attempts)
	}
	waitGoroutines(t, base)
}

// TestChaosSmokePartialMode: the same dead source under
// PartialOnSourceError completes the query without its tuples and annotates
// the result accurately.
func TestChaosSmokePartialMode(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(context.Background(), chaosSQL, Options{
		DelayedTables:   []string{"partsupp"},
		Delay:           &DelayConfig{Initial: time.Millisecond},
		Faults:          &FaultProfile{Seed: 1, TransientRate: 1},
		Retry:           fastRetry(),
		OnSourceFailure: PartialOnSourceError,
	})
	if err != nil {
		t.Fatalf("partial mode failed instead of degrading: %v", err)
	}
	if res.Complete() {
		t.Fatal("partial result not marked incomplete")
	}
	if len(res.IncompleteTables) != 1 || res.IncompleteTables[0].Table != "partsupp" {
		t.Fatalf("IncompleteTables = %+v, want exactly [partsupp]", res.IncompleteTables)
	}
	// The source died on its first flush, so none of its tuples (and hence
	// no join output) arrived.
	if len(res.Rows) != 0 {
		t.Fatalf("dead-from-the-start source still produced %d rows", len(res.Rows))
	}
	if res.Retries != 3 {
		t.Fatalf("Result.Retries = %d, want 3", res.Retries)
	}
}

// TestChaosSmokeStallBreaker: a remote site that stalls every transfer
// forces per-attempt timeouts; enough consecutive failures must open the
// site's circuit breaker, visible in Result.BreakerTransitions. Partial
// mode keeps the Result (and its counters) reachable.
func TestChaosSmokeStallBreaker(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := e.Query(ctx, chaosSQL, Options{
		RemoteTables: map[string]int{"partsupp": 1},
		Faults:       &FaultProfile{Seed: 3, StallRate: 1},
		Retry: RetryPolicy{
			MaxRetries:      6,
			AttemptTimeout:  20 * time.Millisecond,
			BaseBackoff:     time.Millisecond,
			MaxBackoff:      5 * time.Millisecond,
			BreakerFailures: 3,
			BreakerCooldown: 10 * time.Millisecond,
		},
		OnSourceFailure: PartialOnSourceError,
	})
	if err != nil {
		t.Fatalf("partial mode failed instead of degrading: %v", err)
	}
	if res.Complete() {
		t.Fatal("stalled source not reported incomplete")
	}
	if res.BreakerTransitions == 0 {
		t.Fatal("3 consecutive timeouts did not open the breaker")
	}
	if res.Retries == 0 {
		t.Fatal("stalled transfers recorded no retries")
	}
}

// TestChaosSmokeWastedBytes: messages cut mid-flight account the bytes that
// crossed the link before the failure as wasted, separate from the
// sent-byte figures.
func TestChaosSmokeWastedBytes(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(context.Background(), chaosSQL, Options{
		RemoteTables:    map[string]int{"partsupp": 1},
		Faults:          &FaultProfile{Seed: 11, CutRate: 0.4},
		Retry:           fastRetry(),
		OnSourceFailure: PartialOnSourceError,
	})
	if err != nil {
		t.Fatalf("cut profile failed the query: %v", err)
	}
	if res.WastedBytes == 0 {
		t.Fatal("cut transfers recorded no wasted bytes")
	}
}

// TestChaosCancelMidBackoff: cancelling the query while the retrier sleeps
// between attempts must return context.Canceled promptly — the backoff
// timer is interruptible, not slept out.
func TestChaosCancelMidBackoff(t *testing.T) {
	e := testEngine(t)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := e.QueryStream(ctx, chaosSQL, Options{
		DelayedTables: []string{"partsupp"},
		Delay:         &DelayConfig{Initial: time.Millisecond},
		Faults:        &FaultProfile{Seed: 1, TransientRate: 1},
		Retry: RetryPolicy{
			BaseBackoff: 30 * time.Second, // cancellation must not wait this out
			MaxBackoff:  30 * time.Second,
			Jitter:      -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the first attempt fail and the retrier enter its 30s backoff,
	// then cancel and require a prompt unwind.
	time.Sleep(100 * time.Millisecond)
	cancel()
	t0 := time.Now()
	for rows.Next() {
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("cancel during backoff took %v to unwind", elapsed)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}

// TestChaosDifferentialFailMode: under FailOnSourceError, fault injection
// plus retries must be invisible in the answer — every seed that completes
// returns rows identical to the fault-free run.
func TestChaosDifferentialFailMode(t *testing.T) {
	e := testEngine(t)
	base := canon(mustRows(t, e, chaosSQL, Options{Strategy: CostBased}))

	profile := FaultProfile{TransientRate: 0.08, DropRate: 0.04, CutRate: 0.08}
	completed, retries := 0, int64(0)
	for seed := int64(1); seed <= 5; seed++ {
		p := profile
		p.Seed = seed
		res, err := e.Query(context.Background(), chaosSQL, Options{
			Strategy:     CostBased,
			RemoteTables: map[string]int{"partsupp": 1},
			Faults:       &p,
			Retry:        fastRetry(),
		})
		if err != nil {
			var se *SourceError
			if !errors.As(err, &se) {
				t.Fatalf("seed %d: failed with %T (%v), want *SourceError", seed, err, err)
			}
			continue
		}
		completed++
		retries += res.Retries
		got := canon(res.Rows)
		if len(got) != len(base) {
			t.Fatalf("seed %d: %d rows, fault-free run has %d", seed, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("seed %d: row %d = %q, fault-free %q", seed, i, got[i], base[i])
			}
		}
	}
	if completed == 0 {
		t.Fatal("no seed completed; profile too hostile for a differential check")
	}
	if retries == 0 {
		t.Fatal("no retries across 5 seeds; profile injected nothing")
	}
}

// TestChaosResultCounters: the scalar Result counters survive sequential,
// concurrent and faulty runs sharing one engine.
func TestChaosResultCounters(t *testing.T) {
	eng := NewEngine(GenerateTPCH(DataConfig{ScaleFactor: 0.005}))
	base := canon(mustRows(t, eng, chaosSQL, Options{}))

	check := func(res *Result) {
		t.Helper()
		if res.TuplesScanned == 0 {
			t.Fatal("run lost its scalar counters")
		}
		got := canon(res.Rows)
		if len(got) != len(base) {
			t.Fatalf("run returned %d rows, want %d", len(got), len(base))
		}
	}
	for i := 0; i < 3; i++ {
		res, err := eng.Query(context.Background(), chaosSQL, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(res)
	}
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 3; i++ {
				res, err := eng.Query(context.Background(), chaosSQL, Options{})
				if err != nil {
					errc <- err
					return
				}
				if res.TuplesScanned == 0 || len(res.Rows) != len(base) {
					errc <- fmt.Errorf("bad concurrent result: scanned=%d rows=%d", res.TuplesScanned, len(res.Rows))
					return
				}
			}
			errc <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// Faulty run: the recovery counters reach the Result.
	res, err := eng.Query(context.Background(), chaosSQL, Options{
		RemoteTables: map[string]int{"partsupp": 1},
		Faults:       &FaultProfile{Seed: 7, TransientRate: 0.2},
		Retry:        fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	check(res)
	if res.Retries == 0 {
		t.Fatal("faulty run lost its retry counter")
	}
}

// TestChaosPinnedRetries pins the fault sequences of delayed scans: a scan
// draws one injected fault per read of up to scanChunkRows rows, cut at the
// next EveryN or BurstEveryN boundary, so for a fixed seed and delay shape
// the retries a run absorbs are a fixed number. The breaker is off and the
// retry budget never runs out, so the count depends on nothing but the
// draws.
func TestChaosPinnedRetries(t *testing.T) {
	e := testEngine(t)
	base := canon(mustRows(t, e, chaosSQL, Options{}))
	shapes := []struct {
		name  string
		delay DelayConfig
		want  [6]int64 // Result.Retries for seeds 1–6
	}{
		{"batch", DelayConfig{Initial: time.Millisecond}, [6]int64{0, 2, 1, 2, 3, 1}},
		{"every", DelayConfig{EveryN: 100, BurstEveryN: 250}, [6]int64{9, 8, 9, 15, 8, 10}},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			delay := sh.delay
			res, err := e.Query(context.Background(), chaosSQL, Options{
				DelayedTables: []string{"supplier", "partsupp"},
				Delay:         &delay,
				Faults:        &FaultProfile{Seed: seed, TransientRate: 0.1, DropRate: 0.05},
				Retry: RetryPolicy{MaxRetries: 64, AttemptTimeout: -1, BaseBackoff: time.Microsecond,
					MaxBackoff: time.Microsecond, Jitter: -1, BreakerFailures: -1},
			})
			if err != nil {
				t.Fatalf("%s/seed %d: %v", sh.name, seed, err)
			}
			if got := canon(res.Rows); !slices.Equal(got, base) {
				t.Fatalf("%s/seed %d: %d rows, fault-free %d", sh.name, seed, len(got), len(base))
			}
			if res.Retries != sh.want[seed-1] {
				t.Errorf("%s/seed %d: Result.Retries = %d, pinned %d", sh.name, seed, res.Retries, sh.want[seed-1])
			}
		}
	}
}

// TestChaosMatrix is the full chaos sweep: seeds × fault profiles ×
// failure modes × strategies, each run bounded by a deadline. Gated behind
// SIP_CHAOS=1 (several minutes under -race); `make chaos` runs it.
func TestChaosMatrix(t *testing.T) {
	if os.Getenv("SIP_CHAOS") == "" {
		t.Skip("set SIP_CHAOS=1 (or run `make chaos`) for the full fault matrix")
	}
	e := testEngine(t)
	goroutineBase := runtime.NumGoroutine()
	base := canon(mustRows(t, e, chaosSQL, Options{}))
	baseCount := map[string]int{}
	for _, r := range base {
		baseCount[r]++
	}

	profiles := []struct {
		name string
		p    FaultProfile
	}{
		{"transient", FaultProfile{TransientRate: 0.15}},
		{"drop", FaultProfile{DropRate: 0.15}},
		{"stall", FaultProfile{StallRate: 0.10}},
		{"cut", FaultProfile{CutRate: 0.20}},
		{"mixed", FaultProfile{TransientRate: 0.05, DropRate: 0.05, StallRate: 0.05, CutRate: 0.05}},
	}
	modes := []FailureMode{FailOnSourceError, PartialOnSourceError}
	strategies := []Strategy{Baseline, FeedForward, CostBased}
	// Memory-pressure axis: unbounded, a budget tight enough to force
	// bucket-discard spilling on this working set, and a comfortable one.
	// Faults and out-of-core execution compose: the same invariants hold.
	budgets := []int64{0, 64 << 10, 256 << 10}

	for _, prof := range profiles {
		for _, mode := range modes {
			for _, strat := range strategies {
				for _, budget := range budgets {
					for seed := int64(1); seed <= 4; seed++ {
						name := fmt.Sprintf("%s/%v/%v/mem%dk/seed%d", prof.name, mode, strat, budget>>10, seed)
						t.Run(name, func(t *testing.T) {
							p := prof.p
							p.Seed = seed
							ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
							defer cancel()
							res, err := e.Query(ctx, chaosSQL, Options{
								Strategy:        strat,
								RemoteTables:    map[string]int{"partsupp": 1},
								DelayedTables:   []string{"supplier"},
								Delay:           &DelayConfig{Initial: time.Millisecond},
								Faults:          &p,
								Retry:           fastRetry(),
								OnSourceFailure: mode,
								MemBudget:       budget,
								Parallelism:     4,
							})
							if err != nil {
								if ctx.Err() != nil {
									t.Fatalf("run hit its deadline (hang): %v", err)
								}
								var be *BudgetError
								if budget > 0 && errors.As(err, &be) {
									// An unworkably tight budget is a legal
									// typed failure in either mode — but
									// never a hang or a silent truncation.
									return
								}
								if mode == PartialOnSourceError {
									t.Fatalf("partial mode must degrade, not fail: %v", err)
								}
								var se *SourceError
								if !errors.As(err, &se) {
									t.Fatalf("failed with %T (%v), want *SourceError", err, err)
								}
								if se.Table == "" || se.Attempts == 0 {
									t.Fatalf("SourceError missing context: %+v", se)
								}
								return
							}
							got := canon(res.Rows)
							if res.Complete() {
								if len(got) != len(base) {
									t.Fatalf("complete run returned %d rows, fault-free %d", len(got), len(base))
								}
								for i := range got {
									if got[i] != base[i] {
										t.Fatalf("complete run row %d = %q, fault-free %q", i, got[i], base[i])
									}
								}
								return
							}
							if mode != PartialOnSourceError {
								t.Fatal("fail mode produced an incomplete result instead of an error")
							}
							// Partial: rows must be a sub-multiset of the
							// fault-free answer — degraded, never wrong.
							seen := map[string]int{}
							for _, r := range got {
								seen[r]++
								if seen[r] > baseCount[r] {
									t.Fatalf("partial run invented row %q", r)
								}
							}
						})
					}
				}
			}
		}
	}
	waitGoroutines(t, goroutineBase)
}

// TestChaosSpilledThenAbandoned composes the memory governor with graceful
// degradation: under a budget small enough that the join spills its build
// buckets to disk, the probe-side source dies mid-stream (no retries, so the
// first injected fault is fatal) in partial mode. The spilled state must not
// confuse the bookkeeping — the query completes, reports the dead table as
// incomplete, and its rows stay a sub-multiset of the fault-free answer.
func TestChaosSpilledThenAbandoned(t *testing.T) {
	eng := spillEngine(t)
	const q = `SELECT l_orderkey, o_orderdate
		FROM lineitem, orders WHERE l_orderkey = o_orderkey`
	base := canon(mustRows(t, eng, q, Options{Parallelism: 4}))
	baseCount := map[string]int{}
	for _, r := range base {
		baseCount[r]++
	}

	pol := fastRetry()
	pol.MaxRetries = -1 // first fault is fatal: the source dies mid-stream
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := eng.Query(ctx, q, Options{
		Parallelism:   4,
		MemBudget:     256 << 10,
		DelayedTables: []string{"lineitem"},
		Delay:         &DelayConfig{Initial: time.Millisecond},
		// Seed 20 lands the first injected fault ~20 reads into the
		// lineitem stream: a third of the probe side arrives (spilling the
		// budget-capped join state along the way), then the source dies.
		Faults:          &FaultProfile{Seed: 20, TransientRate: 0.05},
		Retry:           pol,
		OnSourceFailure: PartialOnSourceError,
	})
	if err != nil {
		t.Fatalf("partial mode failed instead of degrading: %v", err)
	}
	if res.Complete() {
		t.Fatal("result not marked incomplete after the source died")
	}
	if len(res.IncompleteTables) != 1 || res.IncompleteTables[0].Table != "lineitem" {
		t.Fatalf("IncompleteTables = %+v, want exactly [lineitem]", res.IncompleteTables)
	}
	if res.SpillEvents == 0 || res.SpillBytes == 0 {
		t.Fatalf("no spill before abandonment (events=%d bytes=%d): budget too generous",
			res.SpillEvents, res.SpillBytes)
	}
	got := canon(res.Rows)
	if len(got) == 0 {
		t.Fatal("source died before delivering anything — scenario wants spilled-then-abandoned")
	}
	if len(got) >= len(base) {
		t.Fatalf("abandoned run returned %d rows, fault-free %d", len(got), len(base))
	}
	seen := map[string]int{}
	for _, r := range got {
		seen[r]++
		if seen[r] > baseCount[r] {
			t.Fatalf("partial run invented row %q", r)
		}
	}
}
