package exec

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bloom"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/types"
)

// Source-side selection: a scan that evaluates the Filter above it and
// probes its consumer's filter bank per chunk must change how much work is
// done and never the answer or the accounting.

// sourceFixture is a big probe side (keys i%1000, a float payload) against
// ten build keys, with the filter the build side would publish.
type sourceFixture struct {
	big, small []types.Tuple
	keep       map[int64]bool
}

func newSourceFixture(n int) *sourceFixture {
	f := &sourceFixture{keep: map[int64]bool{}}
	f.big = make([]types.Tuple, n)
	for i := range f.big {
		f.big[i] = types.Tuple{types.Int(int64(i % 1000)), types.Float(float64(i%50) / 2)}
	}
	for k := int64(0); k < 10; k++ {
		f.small = append(f.small, types.Tuple{types.Int(k * 97), types.Int(k)})
		f.keep[k*97] = true
	}
	return f
}

func (f *sourceFixture) summary(exact bool) filter.Summary {
	var kb []byte
	if exact {
		hs := filter.NewHashSet(16)
		for k := range f.keep {
			kb = types.AppendIntKey(kb[:0], k)
			hs.AddHash(types.Hash64(kb, 0), kb)
		}
		return hs
	}
	bf := bloom.NewBlocked(len(f.keep), 0.01)
	for k := range f.keep {
		bf.AddHash(types.HashIntKey(k))
	}
	return filter.Blocked{F: bf}
}

// modelSource makes sc a delayed source: a 100 µs initial delay, a µs pause
// every 1000 rows and a longer one every 3000 (the 1000-row pause wins where
// they meet; neither is a multiple of scanChunkRows, so reads are cut).
func modelSource(sc *Scan) {
	sc.Delay = &DelayConfig{Initial: 100 * time.Microsecond, EveryN: 1000, Pause: 10 * time.Microsecond,
		BurstEveryN: 3000, BurstPause: 50 * time.Microsecond}
}

// TestZeroDelayModel: an undelayed scan is a zero source model, so a scan
// given a zero DelayConfig emits exactly the batches of one with none — the
// same rows in the same batches, sizes included — with and without a pushed
// predicate and column vectors.
func TestZeroDelayModel(t *testing.T) {
	f := newSourceFixture(10_000)
	batches := func(delay *DelayConfig, filtered, vecs bool) []string {
		_, l := f.plan(false, vecs)
		l.Delay = delay
		var root Op = l
		if filtered {
			root = &Filter{Name: "l", Child: l, Pred: &expr.Binary{Op: expr.OpLt,
				L: &expr.ColRef{Idx: 1, Col: l.Sch.Cols[1]}, R: &expr.Const{V: types.Float(20)}}}
		}
		ctx := NewContext(stats.NewRegistry(), nil)
		var out []string
		for b := range root.Start(ctx) {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d:", b.Len())
			for _, lane := range b.Live() {
				sb.WriteString(b.Tuples[lane].String())
			}
			out = append(out, sb.String())
			PutBatch(b)
		}
		ctx.Wait()
		return out
	}
	for _, filtered := range []bool{false, true} {
		for _, vecs := range []bool{false, true} {
			label := fmt.Sprintf("filtered=%v vecs=%v", filtered, vecs)
			want, got := batches(nil, filtered, vecs), batches(&DelayConfig{}, filtered, vecs)
			if len(want) < 2 {
				t.Fatalf("%s: %d batches — the test is vacuous", label, len(want))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: a zero DelayConfig emitted %d batches, want the unmodeled scan's %d, equal in rows and sizes",
					label, len(got), len(want))
			}
		}
	}
}

// plan builds Filter(l.v < 20)(Scan big) ⋈ Scan small. wired hands the big
// scan its consumer's point; vecs gives it the table's typed vectors.
func (f *sourceFixture) plan(wired, vecs bool) (*HashJoin, *Scan) {
	lsch := types.NewSchema(
		types.Column{Table: "l", Name: "k", Kind: types.KindInt},
		types.Column{Table: "l", Name: "v", Kind: types.KindFloat})
	l := &Scan{Name: "l", Rows: f.big, Sch: lsch}
	if vecs {
		l.Vecs = &catalog.Table{Name: "l", Schema: lsch, Rows: f.big}
	}
	pred := &expr.Binary{Op: expr.OpLt,
		L: &expr.ColRef{Idx: 1, Col: lsch.Cols[1]}, R: &expr.Const{V: types.Float(20)}}
	r := &Scan{Name: "r", Rows: f.small, Sch: intSchema("a", "y")}
	lf := &Filter{Name: "l", Child: l, Pred: pred}
	j := NewHashJoin("j", lf, r, []int{0}, []int{0}, AllCols(lf, r), nil)
	mk := func(name string, sch *types.Schema) *Point {
		return &Point{Name: name, Bank: NewFilterBank(), Stateful: true, Schema: sch,
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0}, DomainDistinct: []float64{1000, 0}}
	}
	j.LPoint, j.RPoint = mk("l", lsch), mk("r", r.Sch)
	if wired {
		l.Point = j.LPoint
	}
	return j, l
}

// TestScanSideSelectionDifferential publishes the filter mid-scan — from
// the point's own OnStore hook, once the router has kept 1000 tuples (the
// join's other side streams only after), so the scan is provably still running (a scan can lead its router by only a
// few batches) — and checks, for both summary kinds, P ∈ {1,2}, with and
// without column vectors (the row fallback), unmodeled and delayed
// (modelSource), that the rows equal the unwired plan's and that every row
// is accounted exactly once: received is the rows that passed the
// predicate, and pruned plus kept is the same.
func TestScanSideSelectionDifferential(t *testing.T) {
	const n = 200_000
	f := newSourceFixture(n)
	base, _ := f.plan(false, false)
	want := rowStrings(runOp(t, base, nil))
	if len(want) == 0 {
		t.Fatal("baseline produced no rows — test is vacuous")
	}
	passPred := int64(0)
	for _, r := range f.big {
		if r[1].F < 20 {
			passPred++
		}
	}
	for _, exact := range []bool{false, true} {
		for _, p := range []int{1, 2} {
			for _, vecs := range []bool{true, false} {
				for _, modeled := range []bool{false, true} {
					label := fmt.Sprintf("exact=%v P=%d vecs=%v modeled=%v", exact, p, vecs, modeled)
					j, scan := f.plan(true, vecs)
					if modeled {
						modelSource(scan)
					}
					sum := f.summary(exact)
					var kept atomic.Int64
					j.LPoint.OnStore = func(types.Tuple) {
						if kept.Add(1) == 1000 {
							j.LPoint.Bank.Attach([]int{0}, sum)
						}
					}
					// The small side streams once the big one is done: a route
					// whose sibling completed calls no OnStore.
					j.Right = &gated{child: j.Right, cond: j.LPoint.Done}
					got, reg, err := runParallel(j, p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					sameRows(t, label, want, rowStrings(got))

					var scanOp, lop *stats.OpStats
					for _, op := range reg.Ops() {
						switch op.Name {
						case "scan:" + scan.Name:
							scanOp = op
						case "join:j.left":
							lop = op
						case "filter:l":
							t.Fatalf("%s: the filter ran as its own operator", label)
						}
					}
					if scanOp.In.Load() != n {
						t.Fatalf("%s: scan read %d rows, want %d", label, scanOp.In.Load(), n)
					}
					if out := scanOp.Out.Load(); out >= passPred/2 || out != lop.In.Load() {
						t.Fatalf("%s: scan emitted %d rows (join received %d); want well under the %d that pass the predicate",
							label, out, lop.In.Load(), passPred)
					}
					if r := j.LPoint.Received(); r != passPred {
						t.Fatalf("%s: received = %d, want %d (each row once)", label, r, passPred)
					}
					if pr := lop.Pruned.Load(); pr+kept.Load() != passPred {
						t.Fatalf("%s: pruned %d + kept %d != %d rows past the predicate", label, pr, kept.Load(), passPred)
					}
					if exact && kept.Load() > 1000+scanChunkRows*int64(p+1)+passPred/100 {
						t.Fatalf("%s: kept %d tuples — the filter was not applied from the next chunk on", label, kept.Load())
					}
				}
			}
		}
	}
}

// TestScanSiblingCompletesMidScan: the join's small side streams once the
// big side's routing scan has stored 1000 rows, and each chunk worker that
// stores a row after that waits in OnStore until the small side has
// completed, so the sibling completes while the scan is mid-scan with every
// chunk worker (GOMAXPROCS 4) inside its route. The rows equal the unwired
// plan's; the big side's OnStore saw only part of its input, its point's
// state is incomplete, and a controller publishing only complete state
// publishes no set from it.
func TestScanSiblingCompletesMidScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 200_000
	f := newSourceFixture(n)
	base, _ := f.plan(false, false)
	want := rowStrings(runOp(t, base, nil))
	passPred := int64(0)
	for _, r := range f.big {
		if r[1].F < 20 {
			passPred++
		}
	}
	for _, p := range []int{1, 2} {
		label := fmt.Sprintf("P=%d", p)
		j, scan := f.plan(true, true)
		var kept atomic.Int64
		j.LPoint.OnStore = func(types.Tuple) {
			if kept.Add(1) <= 1000 {
				return
			}
			for deadline := time.Now().Add(10 * time.Second); !j.RPoint.Done() && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
		}
		j.Right = &gated{child: j.Right, cond: func() bool { return kept.Load() >= 1000 }}
		ctx := NewContext(stats.NewRegistry(), &publishCtl{from: j.LPoint, to: j.RPoint})
		ctx.Parallelism = p
		got, err := Run(ctx, j)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameRows(t, label, want, rowStrings(got))
		if in := findOp(ctx.Stats, "scan:"+scan.Name).In.Load(); in != n || j.LPoint.Received() != passPred {
			t.Fatalf("%s: scan read %d rows and its point received %d; want %d and %d", label, in, j.LPoint.Received(), n, passPred)
		}
		if k := kept.Load(); k <= 1000 || k >= passPred {
			t.Fatalf("%s: OnStore saw %d of %d rows; want more than 1000 (the workers raced the completion) and not all", label, k, passPred)
		}
		if j.LPoint.StateComplete() || j.RPoint.Bank.Len() != 0 {
			t.Fatalf("%s: big side's state complete=%v, %d sets published from it; want incomplete and none",
				label, j.LPoint.StateComplete(), j.RPoint.Bank.Len())
		}
	}
}

// TestModeledScanStopsWhenAbandoned: under PartialOnSourceError a modeled
// scan looks for its table having been given up on at every read, not once
// per chunk: with a pause after every row, it stops within a few reads of
// FailSource instead of pausing through the rest of a 1 024-row chunk.
func TestModeledScanStopsWhenAbandoned(t *testing.T) {
	rows := make([]types.Tuple, 4*scanChunkRows)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i))}
	}
	sc := &Scan{Name: "t", Table: "t", Rows: rows, Sch: intSchema("a"),
		Delay: &DelayConfig{EveryN: 1, Pause: time.Millisecond}}
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Recovery.Mode = PartialOnSourceError
	out := sc.Start(ctx)
	<-out // the first read's row, handed on before its pause
	ctx.FailSource(&SourceError{Table: "t", Cause: errors.New("gone")})
	for range out {
	}
	if n := findOp(ctx.Stats, "scan:t").In.Load(); n >= scanChunkRows/4 {
		t.Fatalf("the scan read %d rows after its table was abandoned at row 1; want a few", n)
	}
}

// TestScanChunkZeroAllocs pins the steady-state chunk path — typed
// predicate, vector key hash, blocked-Bloom probe, survivor gather — at
// zero allocations per chunk once the scratch is warm.
func TestScanChunkZeroAllocs(t *testing.T) {
	f := newSourceFixture(8 * scanChunkRows)
	j, scan := f.plan(true, true)
	j.LPoint.Bank.Attach([]int{0}, f.summary(false))
	j.LPoint.Op = stats.NewRegistry().NewOp("join:j.left")
	op := stats.NewRegistry().NewOp("scan:l")
	w := scan.newWorker(j.Left.(*Filter).Pred)
	if len(w.typed) != 1 || w.rest != nil {
		t.Fatalf("predicate split into %d typed kernels, rest %v; want one typed kernel", len(w.typed), w.rest)
	}
	emitted := 0
	emit := func(b Batch) bool {
		emitted += len(b.Tuples)
		PutBatch(b)
		return true
	}
	batch := GetBatch()
	run := func() {
		for lo := 0; lo < len(scan.Rows); lo += scanChunkRows {
			if !w.chunk(scan, op, lo, lo+scanChunkRows, &batch, emit) {
				t.Fatal("chunk refused")
			}
		}
	}
	run() // warm the scratch and build the vectors
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("chunk kernel allocates %.1f objects per 8 chunks at steady state, want 0", allocs)
	}
	if emitted == 0 {
		t.Fatal("nothing survived — test is vacuous")
	}
}

// TestJoinTableReservationFollowsArrivals pins the deferred reservation: a
// table with a large hint costs the floor until arrivals outgrow it, then
// reaches the hint in one more step; and a join whose inputs stay under the
// floor never accounts the hint.
func TestJoinTableReservationFollowsArrivals(t *testing.T) {
	const hint = 100_000
	var jt joinTable
	jt.reserve(hint, 0)
	if jt.memBytes() != 0 {
		t.Fatalf("reserve allocated %d bytes before any arrival", jt.memBytes())
	}
	var kb []byte
	steps, lastCap := 0, 0
	insert := func(i int) {
		kb = types.AppendIntKey(kb[:0], int64(i))
		jt.insert(types.HashIntKey(int64(i)), kb, types.Tuple{types.Int(int64(i))}, uint64(i+1))
		if c := cap(jt.entries); c != lastCap {
			steps, lastCap = steps+1, c
		}
	}
	for i := 0; i < joinFloorRows; i++ {
		insert(i)
	}
	if steps != 1 || lastCap != joinFloorRows {
		t.Fatalf("%d rows: %d growth steps to capacity %d, want 1 step to the floor %d", joinFloorRows, steps, lastCap, joinFloorRows)
	}
	for i := joinFloorRows; i < hint; i++ {
		insert(i)
	}
	if steps != 2 || lastCap != hint {
		t.Fatalf("%d rows: %d growth steps to capacity %d, want 2 steps ending at the hint", hint, steps, lastCap)
	}
	for i := 0; i < hint; i += 997 {
		kb = types.AppendIntKey(kb[:0], int64(i))
		if got := jt.probe(types.HashIntKey(int64(i)), kb, ^uint64(0), nil); len(got) != 1 {
			t.Fatalf("key %d: %d matches after the regrow, want 1", i, len(got))
		}
	}

	// End to end: both inputs estimated at a million rows, a hundred arrive.
	rows := make([]types.Tuple, 100)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Int(0)}
	}
	j := buildJoin(rows, rows)
	j.LPoint.EstRows, j.RPoint.EstRows = 1e6, 1e6
	ctx := NewContext(stats.NewRegistry(), nil)
	ctx.Parallelism = 1
	got, err := Run(ctx, j)
	if err != nil || len(got) != len(rows) {
		t.Fatalf("%d rows, err %v", len(got), err)
	}
	// The hint would be 2 × 1M × (40 B entry + 4 B head + 8 B slots).
	if peak := ctx.PeakTrackedBytes(); peak > 2*joinFloorRows*64 {
		t.Fatalf("peak tracked state %d B for 200 stored rows — the hint was allocated", peak)
	}
}
