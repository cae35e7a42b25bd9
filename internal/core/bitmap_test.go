package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/types"
)

// withDomain gives a mkPoint point's key column an integer domain.
func withDomain(p *exec.Point, lo, hi int64) *exec.Point {
	p.StateDomains = []exec.IntDomain{{Lo: lo, Hi: hi, Known: true}, {}}
	return p
}

// TestAnalyzeBitmapRule pins when a class's sets become bitmaps: every
// producer carries a known integer domain and the union spans at most the
// class's Bloom bits. Anything else stays the blocked Bloom filter.
func TestAnalyzeBitmapRule(t *testing.T) {
	classOf := func(kind SummaryKind, ps ...*exec.Point) *classInfo {
		t.Helper()
		cs := analyze(ps, 0.05, kind)
		if len(cs) != 1 {
			t.Fatalf("want one class, got %d", len(cs))
		}
		return cs[1]
	}
	bits := classOf(SummaryBloom, mkPoint("a", 1, 100, 100), mkPoint("b", 1, 100, 100)).bits
	span := int64(bits)

	// span = bits: a bitmap over the union of the two domains.
	ci := classOf(SummaryBloom,
		withDomain(mkPoint("a", 1, 100, 100), -5, 10),
		withDomain(mkPoint("b", 1, 100, 100), 0, span-6))
	if !ci.bitmap || ci.lo != -5 || ci.hi != span-6 {
		t.Fatalf("span = bits: bitmap=%v [%d, %d], want bitmap over [-5, %d]", ci.bitmap, ci.lo, ci.hi, span-6)
	}
	if b := ci.newBitmap(); uint64(8*b.SizeBytes()) > bits {
		t.Fatalf("the bitmap (%d B) is larger than the class's Bloom filter (%d bits)", b.SizeBytes(), bits)
	}
	// span = bits + 1: Bloom.
	if ci := classOf(SummaryBloom,
		withDomain(mkPoint("a", 1, 100, 100), -5, 10),
		withDomain(mkPoint("b", 1, 100, 100), 0, span-5)); ci.bitmap {
		t.Fatal("span = bits+1 must stay a Bloom filter")
	}
	// A producer without a domain — a DECIMAL column equated with an
	// INTEGER one, say — keeps the class on Bloom.
	if ci := classOf(SummaryBloom,
		withDomain(mkPoint("a", 1, 100, 100), 1, 50),
		mkPoint("dec", 1, 100, 100)); ci.bitmap {
		t.Fatal("a producer with no integer domain must keep the class on Bloom")
	}
	// The whole int64 range: no overflow, Bloom.
	if ci := classOf(SummaryBloom,
		withDomain(mkPoint("a", 1, 100, 100), math.MinInt64, 0),
		withDomain(mkPoint("b", 1, 100, 100), 0, math.MaxInt64)); ci.bitmap {
		t.Fatal("a [MinInt64, MaxInt64] domain must stay a Bloom filter")
	}
	// The hash-set ablation is never a bitmap.
	if ci := classOf(SummaryHashSet,
		withDomain(mkPoint("a", 1, 100, 100), 1, 50),
		withDomain(mkPoint("b", 1, 100, 100), 1, 50)); ci.bitmap {
		t.Fatal("SummaryHashSet must stay hash sets")
	}
}

// TestAnalyzeMultiColumnKeys: a producer keyed on two columns yields one
// set per column's class (every AIP set is over one column), each picked on
// its own column's domain; the column without one stays on Bloom.
func TestAnalyzeMultiColumnKeys(t *testing.T) {
	two := func(name string) *exec.Point {
		return &exec.Point{
			Name: name, EqIDs: []int{1, 2}, StateEqIDs: []int{1, 2}, KeyCols: []int{0, 1},
			Bank: exec.NewFilterBank(), Stateful: true, EstRows: 100,
			DomainDistinct: []float64{100, 100}, Schema: intSchema("a", "b"),
			StateDomains: []exec.IntDomain{{Lo: 1, Hi: 100, Known: true}, {}},
		}
	}
	cs := analyze([]*exec.Point{two("x"), two("y")}, 0.05, SummaryBloom)
	if len(cs) != 2 || !cs[1].bitmap || cs[2].bitmap {
		t.Fatalf("want class 1 a bitmap and class 2 Bloom, got %d classes", len(cs))
	}
}

// TestFeedForwardBitmapJoin: with domains on both join inputs Feed-forward
// publishes a bitmap, prunes exactly what the hash-set ablation prunes,
// returns the same rows, and spends fewer filter bytes than the Bloom path.
func TestFeedForwardBitmapJoin(t *testing.T) {
	run := func(kind SummaryKind, domains bool) (*stats.Registry, *exec.HashJoin, int) {
		reg := stats.NewRegistry()
		ff := NewFeedForward(Options{Stats: reg, Kind: kind})
		j, _, rows := joinFixtureWith(t, ff, reg, func(j *exec.HashJoin) {
			if domains {
				withDomain(j.LPoint, 0, 9)
				withDomain(j.RPoint, 0, 199)
			}
		})
		return reg, j, len(rows)
	}
	reg, j, n := run(SummaryBloom, true)
	if n != 10 {
		t.Fatalf("rows = %d, want 10", n)
	}
	if reg.FiltersMade.Load() == 0 || reg.FiltersBitmap.Load() != reg.FiltersMade.Load() {
		t.Fatalf("made %d filters, %d bitmaps; want all bitmaps", reg.FiltersMade.Load(), reg.FiltersBitmap.Load())
	}
	if k := j.LPoint.Op.FilterKinds(); k != "bitmap" {
		t.Fatalf("left input's filter kinds %q, want bitmap", k)
	}
	regHS, _, _ := run(SummaryHashSet, true)
	if got, want := reg.TotalPruned(), regHS.TotalPruned(); got != want || got != 190 {
		t.Fatalf("bitmap pruned %d, hash set %d; both exact, want 190", got, want)
	}
	regBloom, _, _ := run(SummaryBloom, false)
	if regBloom.FiltersBitmap.Load() != 0 {
		t.Fatal("no domains: the class must stay on Bloom")
	}
	if b, bl := reg.FilterBytes.Load()+reg.PeakFilterWorkingBytes(), regBloom.FilterBytes.Load(); b > bl {
		t.Fatalf("bitmap working + published bytes %d exceed the Bloom path's %d", b, bl)
	}
}

// TestCostBasedBitmap: the Cost-based manager builds the same kind from the
// state scan, and falls back to Bloom when the state holds a value outside
// the class's domain.
func TestCostBasedBitmap(t *testing.T) {
	for _, hi := range []int64{199, 5} { // 5: the left's keys 6..9 lie outside the domain
		reg := stats.NewRegistry()
		cb := NewCostBased(Options{Stats: reg, Cost: DefaultCostParams()})
		_, _, rows := joinFixtureWith(t, cb, reg, func(j *exec.HashJoin) {
			withDomain(j.LPoint, 0, min(hi, 9))
			withDomain(j.RPoint, 0, hi)
		})
		if len(rows) != 10 {
			t.Fatalf("hi=%d: rows = %d", hi, len(rows))
		}
		if cb.Created() == 0 {
			t.Fatalf("hi=%d: no filter created", hi)
		}
		if got, want := reg.FiltersBitmap.Load(), map[int64]int64{199: 1, 5: 0}[hi]; got != want {
			t.Fatalf("hi=%d: %d bitmaps, want %d", hi, got, want)
		}
	}
}

// TestFeedForwardBitmapOutsideDomain: a working bitmap handed a value it
// cannot hold — outside its domain, or not an integer — is never published,
// and the empty producer of a bitmap class publishes an empty set.
func TestFeedForwardBitmapOutsideDomain(t *testing.T) {
	for _, bad := range []types.Value{types.Int(42), types.Float(3), types.Null()} {
		reg := stats.NewRegistry()
		ff := NewFeedForward(Options{Stats: reg})
		p1 := withDomain(mkPoint("p1", 1, 100, 10), 0, 9)
		p2 := withDomain(mkPoint("p2", 1, 100, 10), 0, 9)
		p3 := withDomain(mkPoint("p3", 1, 100, 10), 0, 9)
		for _, p := range []*exec.Point{p1, p2, p3} {
			ff.RegisterPoint(p)
		}
		ff.Begin()
		p1.OnStore(types.Tuple{types.Int(1), types.Int(0)})
		p1.OnStore(types.Tuple{bad, types.Int(0)})
		markDone(p1)
		ff.PointDone(p1)
		if reg.FiltersMade.Load() != 0 || p2.Bank.Len() != 0 {
			t.Fatalf("%v: a bitmap handed a value it cannot hold was published", bad)
		}
		markDone(p2)
		ff.PointDone(p2) // stored nothing: publishes the empty set to p3
		if reg.FiltersBitmap.Load() != 1 || p3.Bank.Len() != 1 {
			t.Fatalf("the empty producer published %d bitmaps, p3 holds %d filters", reg.FiltersBitmap.Load(), p3.Bank.Len())
		}
		var sc exec.ProbeScratch
		rows := []types.Tuple{{types.Int(3), types.Int(0)}}
		if kept := p3.Bank.ProbeBatch(rows, nil, []int32{0}, nil, &sc); len(kept) != 0 {
			t.Fatal("an empty published bitmap must prune every integer key")
		}
	}
}

// joinFixtureWith is joinFixtureWithCtl with a hook on the join's points
// before the run.
func joinFixtureWith(t *testing.T, ctl exec.Controller, reg *stats.Registry, set func(*exec.HashJoin)) (*exec.HashJoin, *stats.Registry, []types.Tuple) {
	t.Helper()
	lrows := intRows(10, func(i int) int64 { return int64(i) })
	rrows := intRows(200, func(i int) int64 { return int64(i) })
	l := &exec.Scan{Name: "l", Rows: lrows, Sch: intSchema("k", "v")}
	r := &exec.Scan{Name: "r", Rows: rrows, Sch: intSchema("k", "v"),
		Delay: &exec.DelayConfig{Initial: 30 * time.Millisecond}}
	j := exec.NewHashJoin("j", l, r, []int{0}, []int{0}, exec.AllCols(l, r), nil)
	j.LPoint = mkPoint("j.left", 1, 200, 10)
	j.RPoint = mkPoint("j.right", 1, 200, 200)
	set(j)
	ctx := exec.NewContext(reg, ctl)
	ctx.Register(j.LPoint)
	ctx.Register(j.RPoint)
	rows, _ := exec.Run(ctx, j)
	return j, reg, rows
}
