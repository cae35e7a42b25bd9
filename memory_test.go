package sip

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/types"
)

// spillSQL joins lineitem to orders and aggregates — join build state plus
// aggregation groups, the two stateful footprints the memory budget caps.
const spillSQL = `SELECT o_orderdate, count(*)
	FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderdate`

// spillEngine is sized so the query's working set is big enough that a
// quarter-budget meaningfully forces out-of-core execution.
func spillEngine(t testing.TB) *Engine {
	t.Helper()
	return NewEngine(GenerateTPCH(DataConfig{ScaleFactor: 0.01}))
}

// spillBudgetPerRow fixes TestQuerySpillDifferential's budget from the size
// of its input: unbounded, spillSQL holds up to ≈ 265 B of join and agg state
// per lineitem row when both join sides are buffered in full, and this is an
// eighth of that. It is not derived from a measured peak, because the peak
// hangs on timing: when orders completes before lineitem has buffered much
// (§VI-A short-circuit; scans that route from column vectors make it
// likelier) the join holds little more than the orders side, ≈ 60 B per
// lineitem row — which this budget still undercuts, so every run must spill.
const spillBudgetPerRow = 32

// TestQuerySpillDifferential is the end-to-end acceptance property: with a
// budget of about an eighth of the state the query holds when it buffers
// both join sides, the query must complete with byte-identical results under
// Baseline, Feed-forward and Cost-based, while actually spilling and holding
// the tracked peak near the budget.
func TestQuerySpillDifferential(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	ctx := context.Background()

	base, err := eng.Query(ctx, spillSQL, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("unbounded run: %v", err)
	}
	if base.SpillEvents != 0 {
		t.Fatalf("unbounded run spilled %d times", base.SpillEvents)
	}
	want := canon(base.Rows)
	lineitem, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	budget := spillBudgetPerRow * lineitem.NumRows()
	peak := base.PeakMemBytes
	if peak < 3*budget/2 {
		t.Fatalf("unbounded peak %d B would not exercise a budget of %d B", peak, budget)
	}

	for _, strat := range []Strategy{Baseline, FeedForward, CostBased} {
		name := strat.String()
		res, err := eng.Query(ctx, spillSQL, Options{
			Strategy: strat, MemBudget: budget, Parallelism: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := canon(res.Rows)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %q, want %q", name, i, got[i], want[i])
			}
		}
		if res.SpillEvents == 0 || res.SpillBytes == 0 {
			t.Fatalf("%s: no spill activity at budget %d (peak %d)", name, budget, peak)
		}
		slack := budget/2 + 256<<10
		if res.PeakMemBytes > budget+slack {
			t.Fatalf("%s: peak %d exceeds budget %d + slack %d",
				name, res.PeakMemBytes, budget, slack)
		}
	}
}

// TestQueryBudgetError: a budget too small for even the maximum spill-merge
// fan-out surfaces the typed *BudgetError through the public API.
func TestQueryBudgetError(t *testing.T) {
	eng := spillEngine(t)
	_, err := eng.Query(context.Background(), spillSQL, Options{MemBudget: 2 << 10, Parallelism: 4})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Need <= be.Budget {
		t.Fatalf("BudgetError.Need %d not above budget %d", be.Need, be.Budget)
	}
}

// TestEngineMemGovernor: concurrent queries draw grants from one engine
// pool; every query completes correctly (spilling under its grant), and no
// query's tracked peak exceeds the largest possible grant (half the pool)
// plus transient slack.
func TestEngineMemGovernor(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	base, err := NewEngine(cat).Query(context.Background(), spillSQL, Options{Parallelism: 4})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := canon(base.Rows)
	pool := base.PeakMemBytes // every grant is below one query's appetite

	eng := NewEngineWithConfig(cat, EngineConfig{
		MemBudget:            pool,
		MaxConcurrentQueries: 3,
	})
	const queries = 4
	results := make([]*Result, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Query(context.Background(), spillSQL, Options{Parallelism: 4})
		}(i)
	}
	wg.Wait()

	var spills int64
	for i := 0; i < queries; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		got := canon(results[i].Rows)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d rows, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d: row %d = %q, want %q", i, j, got[j], want[j])
			}
		}
		maxGrant := pool / 2
		slack := maxGrant/2 + 256<<10
		if p := results[i].PeakMemBytes; p > maxGrant+slack {
			t.Fatalf("query %d: peak %d exceeds max grant %d + slack %d", i, p, maxGrant, slack)
		}
		spills += results[i].SpillEvents
	}
	if spills == 0 {
		t.Fatalf("no query spilled under a pool of %d B (single-query peak %d B)", pool, pool)
	}
}

// TestMemGovernorGrants exercises the grant arithmetic and blocking
// behavior directly: halving grants, the floor, dry-pool blocking with
// context cancellation, and release-driven wakeup.
func TestMemGovernorGrants(t *testing.T) {
	g := newMemGovernor(1600)
	ctx := context.Background()

	g1, err := g.acquire(ctx)
	if err != nil || g1 != 800 {
		t.Fatalf("first grant = %d, %v; want 800", g1, err)
	}
	g2, err := g.acquire(ctx)
	if err != nil || g2 != 1600/3 {
		t.Fatalf("second grant = %d, %v; want %d", g2, err, 1600/3)
	}
	// avail = 1600-800-533 = 267 >= floor(100); desired 400 capped to 267.
	g3, err := g.acquire(ctx)
	if err != nil || g3 != 1600-g1-g2 {
		t.Fatalf("third grant = %d, %v; want %d", g3, err, 1600-g1-g2)
	}

	// Pool is dry: acquire must block until a release, honoring the context.
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := g.acquire(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dry-pool acquire: err = %v, want deadline exceeded", err)
	}

	done := make(chan int64, 1)
	go func() {
		grant, err := g.acquire(ctx)
		if err != nil {
			t.Errorf("post-release acquire: %v", err)
		}
		done <- grant
	}()
	g.release(g1)
	select {
	case grant := <-done:
		if grant <= 0 {
			t.Fatalf("post-release grant = %d", grant)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter")
	}
}

// TestPlanCacheInvalidatedByCatalogChange: replacing a table via
// Catalog.Add must retire plans compiled against the old contents — the
// next ad-hoc query re-binds and sees the new rows instead of a stale
// snapshot.
func TestPlanCacheInvalidatedByCatalogChange(t *testing.T) {
	sch := types.NewSchema(types.Column{Table: "t", Name: "a", Kind: types.KindInt})
	mk := func(vals ...int64) *catalog.Table {
		rows := make([]types.Tuple, len(vals))
		for i, v := range vals {
			rows[i] = types.Tuple{types.Int(v)}
		}
		return &catalog.Table{Name: "t", Schema: sch, Rows: rows}
	}
	cat := catalog.New()
	cat.Add(mk(1, 2, 3))
	eng := NewEngine(cat)

	const q = `SELECT a FROM t`
	res, err := eng.Query(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("before replace: %d rows, want 3", len(res.Rows))
	}
	// Warm cache: a second identical query must hit.
	if _, err := eng.Query(context.Background(), q, Options{}); err != nil {
		t.Fatal(err)
	}
	if h := eng.PlanCacheStats().Hits; h != 1 {
		t.Fatalf("cache hits before replace = %d, want 1", h)
	}

	cat.Add(mk(4, 5, 6, 7))
	res, err = eng.Query(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("after replace: %d rows, want 4 (stale plan served)", len(res.Rows))
	}
	if h := eng.PlanCacheStats().Hits; h != 1 {
		t.Fatalf("cache hits after replace = %d, want 1 (key must include catalog version)", h)
	}
}

// unavoidableSpillSQL groups lineitem by its order key after joining orders.
// Start order holds the lineitem scan until orders has completed, so the
// join stores no lineitem row — but it must store every orders row, and the
// aggregation one group per order: state the wait graph cannot avoid.
const unavoidableSpillSQL = `SELECT l_orderkey, count(*), sum(l_quantity)
	FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_orderkey`

// TestSpillEvictsUnderStartOrder: under a budget of a quarter of the
// unbounded peak, both a join partition and an aggregation partition of
// unavoidableSpillSQL evict, under Baseline and Feed-forward, and the rows
// equal the unbounded run's.
func TestSpillEvictsUnderStartOrder(t *testing.T) {
	eng := spillEngine(t)
	ctx := context.Background()
	for _, strat := range []Strategy{Baseline, FeedForward} {
		base, err := eng.Query(ctx, unavoidableSpillSQL, Options{Strategy: strat, Parallelism: 4})
		if err != nil || base.SpillEvents != 0 {
			t.Fatalf("%s unbounded: err %v, %d evictions", strat, err, base.SpillEvents)
		}
		budget := base.PeakMemBytes / 4
		res, err := eng.Query(ctx, unavoidableSpillSQL, Options{Strategy: strat, MemBudget: budget, Parallelism: 4})
		if err != nil {
			t.Fatalf("%s budget %d: %v", strat, budget, err)
		}
		if got, want := canon(res.Rows), canon(base.Rows); !slices.Equal(got, want) {
			t.Fatalf("%s budget %d: %d rows differ from the unbounded run's %d", strat, budget, len(got), len(want))
		}
		evicted := map[string]int64{}
		for _, op := range res.Stats.Ops() {
			evicted[op.Class] += op.SpillEvents.Load()
			if strings.HasSuffix(op.Name, ".lineitem") && len(op.WaitedFor) != 1 {
				t.Fatalf("%s: %s waited for %v, want orders' join input", strat, op.Name, op.WaitedFor)
			}
		}
		if evicted["join"] == 0 || evicted["agg"] == 0 {
			t.Fatalf("%s budget %d (unbounded peak %d): evictions by class %v, want a join and an aggregation partition",
				strat, budget, base.PeakMemBytes, evicted)
		}
	}
}
