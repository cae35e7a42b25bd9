package core

import (
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/types"
)

func intSchema(names ...string) *types.Schema {
	cols := make([]types.Column, len(names))
	for i, n := range names {
		cols[i] = types.Column{Table: "t", Name: n, Kind: types.KindInt}
	}
	return types.NewSchema(cols...)
}

func intRows(n int, key func(i int) int64) []types.Tuple {
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{types.Int(key(i)), types.Int(int64(i))}
	}
	return out
}

// mkPoint builds a stateful point over schema (k, v) with class cls on the
// key column.
func mkPoint(name string, cls int, domain float64, est float64) *exec.Point {
	return &exec.Point{
		Name:           name,
		EqIDs:          []int{cls, -1},
		StateEqIDs:     []int{cls, -1},
		KeyCols:        []int{0},
		Bank:           exec.NewFilterBank(),
		Stateful:       true,
		EstRows:        est,
		DomainDistinct: []float64{domain, 0},
		Schema:         intSchema("k", "v"),
	}
}

func TestAnalyzeDropsClassesWithoutInterest(t *testing.T) {
	// Two points, different classes: no cross-interest → both dropped.
	p1 := mkPoint("p1", 1, 10, 10)
	p2 := mkPoint("p2", 2, 10, 10)
	classes := analyze([]*exec.Point{p1, p2}, 0.05, SummaryBloom)
	if len(classes) != 0 {
		t.Fatalf("expected no useful classes, got %d", len(classes))
	}
	// Same class: both are producer+consumer of class 1 → kept.
	p3 := mkPoint("p3", 1, 10, 10)
	classes = analyze([]*exec.Point{p1, p3}, 0.05, SummaryBloom)
	if len(classes) != 1 {
		t.Fatalf("expected one class, got %d", len(classes))
	}
	ci := classes[1]
	if len(ci.producers) != 2 || len(ci.consumers) != 2 {
		t.Fatalf("producers=%d consumers=%d", len(ci.producers), len(ci.consumers))
	}
	if ci.domain != 10 {
		t.Fatalf("domain = %v", ci.domain)
	}
	if ci.bits == 0 {
		t.Fatal("class sizing missing")
	}
}

func TestAnalyzeSelfOnlyClassDropped(t *testing.T) {
	// A single point both producing and consuming its own class is not a
	// sideways-passing opportunity.
	p := mkPoint("p", 1, 10, 10)
	if classes := analyze([]*exec.Point{p}, 0.05, SummaryBloom); len(classes) != 0 {
		t.Fatalf("self-only class must be dropped, got %d", len(classes))
	}
}

// joinFixture runs one join with a controller attached; the left side is
// small and fast, the right side big and delayed, so the left completes
// first and its AIP set should prune the right.
func joinFixture(t *testing.T, ctl exec.Controller, nLeft, nRight int) (*exec.HashJoin, *stats.Registry, []types.Tuple) {
	t.Helper()
	lrows := intRows(nLeft, func(i int) int64 { return int64(i) })
	rrows := intRows(nRight, func(i int) int64 { return int64(i) })
	l := &exec.Scan{Name: "l", Rows: lrows, Sch: intSchema("k", "v")}
	r := &exec.Scan{Name: "r", Rows: rrows, Sch: intSchema("k", "v"),
		Delay: &exec.DelayConfig{Initial: 30 * time.Millisecond}}
	j := exec.NewHashJoin("j", l, r, []int{0}, []int{0}, exec.AllCols(l, r), nil)
	j.LPoint = mkPoint("j.left", 1, float64(nRight), float64(nLeft))
	j.RPoint = mkPoint("j.right", 1, float64(nRight), float64(nRight))
	j.RPoint.Ancestors = nil
	reg := stats.NewRegistry()
	ctx := exec.NewContext(reg, ctl)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	rows, _ := exec.Run(ctx, j)
	return j, reg, rows
}

func TestFeedForwardPrunesAndPreservesResults(t *testing.T) {
	reg0 := stats.NewRegistry()
	_ = reg0
	ff := NewFeedForward(Options{Stats: stats.NewRegistry()})
	// Rebuild options with the registry actually used by the fixture.
	reg := stats.NewRegistry()
	ff = NewFeedForward(Options{Stats: reg})
	lrows := intRows(10, func(i int) int64 { return int64(i) })
	rrows := intRows(200, func(i int) int64 { return int64(i) })
	l := &exec.Scan{Name: "l", Rows: lrows, Sch: intSchema("k", "v")}
	r := &exec.Scan{Name: "r", Rows: rrows, Sch: intSchema("k", "v"),
		Delay: &exec.DelayConfig{Initial: 30 * time.Millisecond}}
	j := exec.NewHashJoin("j", l, r, []int{0}, []int{0}, exec.AllCols(l, r), nil)
	j.LPoint = mkPoint("j.left", 1, 200, 10)
	j.RPoint = mkPoint("j.right", 1, 200, 200)
	ctx := exec.NewContext(reg, ff)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	rows, _ := exec.Run(ctx, j)

	// Results: keys 0..9 match → 10 rows, unaffected by pruning.
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if reg.FiltersMade.Load() == 0 {
		t.Fatal("feed-forward created no filters")
	}
	// The left set {0..9} prunes most of the right's 200 arrivals before
	// they are buffered (modulo Bloom false positives).
	if got := reg.TotalPruned(); got < 150 {
		t.Fatalf("pruned = %d, want most of the right input", got)
	}
	if j.RPoint.StoredRows() > 50 {
		t.Fatalf("right stored %d rows; filter did not limit state", j.RPoint.StoredRows())
	}
}

func TestFeedForwardHashSetMode(t *testing.T) {
	reg := stats.NewRegistry()
	ff := NewFeedForward(Options{Stats: reg, Kind: SummaryHashSet})
	_, _, rows := joinFixtureWithCtl(t, ff, reg)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	if reg.TotalPruned() < 150 {
		t.Fatalf("hash-set mode pruned %d", reg.TotalPruned())
	}
}

func joinFixtureWithCtl(t *testing.T, ctl exec.Controller, reg *stats.Registry) (*exec.HashJoin, *stats.Registry, []types.Tuple) {
	t.Helper()
	return joinFixtureWith(t, ctl, reg, func(*exec.HashJoin) {})
}

func TestCostBasedCreatesBeneficialFilter(t *testing.T) {
	reg := stats.NewRegistry()
	cb := NewCostBased(Options{Stats: reg, Cost: DefaultCostParams()})
	j, _, rows := joinFixtureWithCtl(t, cb, reg)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	_ = j
	if cb.Created() == 0 {
		t.Fatalf("cost-based created no filters (skipped=%d)", cb.Skipped())
	}
	if j.RPoint.StoredRows() > 60 {
		t.Fatalf("right stored %d rows", j.RPoint.StoredRows())
	}
}

func TestCostBasedRejectsUselessFilter(t *testing.T) {
	// Left set size == domain: selectivity 1, no benefit.
	reg := stats.NewRegistry()
	cb := NewCostBased(Options{Stats: reg, Cost: DefaultCostParams()})
	lrows := intRows(200, func(i int) int64 { return int64(i) })
	rrows := intRows(200, func(i int) int64 { return int64(i) })
	l := &exec.Scan{Name: "l", Rows: lrows, Sch: intSchema("k", "v")}
	r := &exec.Scan{Name: "r", Rows: rrows, Sch: intSchema("k", "v"),
		Delay: &exec.DelayConfig{Initial: 20 * time.Millisecond}}
	j := exec.NewHashJoin("j", l, r, []int{0}, []int{0}, exec.AllCols(l, r), nil)
	j.LPoint = mkPoint("j.left", 1, 200, 200)
	j.RPoint = mkPoint("j.right", 1, 200, 200)
	ctx := exec.NewContext(reg, cb)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	_, _ = exec.Run(ctx, j)
	if cb.Created() != 0 {
		t.Fatalf("cost-based built %d useless filters", cb.Created())
	}
	if cb.Skipped() == 0 {
		t.Fatal("expected skip decisions to be recorded")
	}
}

func TestCostBasedSkipsIncompleteState(t *testing.T) {
	// The big side short-circuits (small side completes first while big is
	// delayed); its PointDone must not produce an AIP set.
	reg := stats.NewRegistry()
	cb := NewCostBased(Options{Stats: reg, Cost: CostParams{Tuple: 100, Probe: 0.01, Build: 0.001, Fixed: 0}})
	_, _, _ = joinFixtureWithCtl(t, cb, reg)
	// Only the left (complete) point may produce; count stays ≤ 1 per class.
	if cb.Created() > 1 {
		t.Fatalf("created %d sets; incomplete state must be skipped", cb.Created())
	}
}

func TestFeedForwardInterestDiscard(t *testing.T) {
	// Three points share a class; when all consumers finish, remaining
	// working sets are discarded (no crash, no further publishes).
	reg := stats.NewRegistry()
	ff := NewFeedForward(Options{Stats: reg})
	p1 := mkPoint("p1", 1, 100, 10)
	p2 := mkPoint("p2", 1, 100, 10)
	ff.RegisterPoint(p1)
	ff.RegisterPoint(p2)
	ff.Begin()
	if p1.OnStore == nil || p2.OnStore == nil {
		t.Fatal("working-set hooks not installed")
	}
	p1.OnStore(types.Tuple{types.Int(1), types.Int(0)})
	markDone(p1)
	ff.PointDone(p1)
	markDone(p2)
	ff.PointDone(p2)
	// Interest is now zero; state must be cleaned up without panics.
}

// markDone flips a point to done via its public surface: completing a
// trivial operator would be overkill, so reach the atomic directly through
// the exported test hook on Point (IterState requires doneness only for
// meaningful state; done flag is set by operators — emulate via reflection-
// free helper on the exec side).
func markDone(p *exec.Point) {
	p.MarkDoneForTest()
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.fpr() != 0.05 {
		t.Fatalf("default fpr = %v", o.fpr())
	}
	o.FPR = 0.5
	if o.fpr() != 0.5 {
		t.Fatal("explicit fpr ignored")
	}
	o.FPR = 2
	if o.fpr() != 0.05 {
		t.Fatal("invalid fpr must fall back")
	}
	if o.linkFor(0, 0) != nil || o.linkFor(0, 1) != nil {
		t.Fatal("nil topology must yield nil links")
	}
	cp := DefaultCostParams()
	if cp.Tuple <= 0 || cp.Probe <= 0 || cp.Build <= 0 {
		t.Fatal("cost params must be positive")
	}
}
