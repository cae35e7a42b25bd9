package sip

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/types"
)

// heldOp streams its child only once the input until is done: the test's way
// to decide a scan race one way.
type heldOp struct {
	exec.Op
	until *exec.Point
}

func (h *heldOp) Start(ctx *exec.Context) <-chan exec.Batch {
	in := h.Op.Start(ctx)
	out := make(chan exec.Batch, 1)
	go func() {
		defer close(out)
		for !h.until.Done() {
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Cancelled():
				return
			}
		}
		for b := range in {
			select {
			case out <- b:
			case <-ctx.Cancelled():
				return
			}
		}
	}()
	return out
}

// lineitemFirst runs sql under opts with start order's sibling wait disabled
// (every input unranked: a point without SourceRows is never waited on, and
// Baseline and Magic have no filter wait) and the race it settles decided
// against it: the sibling of lineitem's join input streams only once that
// input is done. It returns the rows and the state the query held.
func lineitemFirst(t *testing.T, eng *Engine, sql string, opts Options) ([]Row, int64) {
	t.Helper()
	p, args, err := eng.adhocPlan(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := p.built.Instantiate(args)
	if err != nil {
		t.Fatal(err)
	}
	held := 0
	var hold func(op exec.Op)
	hold = func(op exec.Op) {
		switch o := op.(type) {
		case *exec.Filter:
			hold(o.Child)
		case *exec.Project:
			hold(o.Child)
		case *exec.HashAgg:
			hold(o.Child)
		case *exec.Distinct:
			hold(o.Child)
		case *exec.HashJoin:
			hold(o.Left)
			hold(o.Right)
			if sc, ok := o.Left.(*exec.Scan); ok && sc.Table == "lineitem" && sc.Point == o.LPoint {
				o.Right, held = &heldOp{Op: o.Right, until: o.LPoint}, held+1
			}
			if sc, ok := o.Right.(*exec.Scan); ok && sc.Table == "lineitem" && sc.Point == o.RPoint {
				o.Left, held = &heldOp{Op: o.Left, until: o.RPoint}, held+1
			}
		}
	}
	hold(inst.Root)
	if held != 1 {
		t.Fatalf("%d joins with a wired lineitem scan, want 1", held)
	}
	reg := stats.NewRegistry()
	ectx := exec.NewContext(reg, nil)
	for _, pt := range inst.Points {
		pt.SourceRows = 0
		ectx.Register(pt)
	}
	rows, err := exec.Run(ectx, inst.Root)
	if err != nil {
		t.Fatal(err)
	}
	return rows, reg.PeakStateBytes()
}

// TestTableISiblingWait pins start order's sibling wait on the Table I
// queries it was built for. In Q4A and Q5A lineitem's join sibling has an
// estimated output at least 4× smaller, so under Baseline and Magic the lineitem scan
// waits for it, and the §VI-A short-circuit leaves lineitem's join input
// probe-only: it stores no row. The query then holds at most half of what it
// holds when lineitem streams first. All four strategies return the rows of
// that lineitem-first run.
func TestTableISiblingWait(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	queries := tableIQueries(t, cat)
	for _, id := range []string{"Q4A", "Q5A"} {
		sql := queries[id]
		for _, strat := range AllStrategies() {
			label := id + "/" + strat.String()
			res, err := eng.Query(context.Background(), sql, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			rows, peak := lineitemFirst(t, eng, sql, Options{Strategy: strat})
			if !sameAnswer(res.Rows, rows) {
				t.Fatalf("%s: rows differ from the lineitem-first run\ngot:  %v\nwant: %v", label, canon(res.Rows), canon(rows))
			}
			if strat != Baseline && strat != Magic {
				continue
			}
			var scan *stats.OpStats
			ops := map[string]*stats.OpStats{}
			for _, op := range res.Stats.Ops() {
				ops[op.Name] = op
				if op.Class == "scan" && strings.HasSuffix(op.Name, ".lineitem") {
					scan = op
				}
			}
			if scan == nil || ops[scan.Routed] == nil {
				t.Fatalf("%s: no lineitem scan routing for a join input", label)
			}
			in := ops[scan.Routed]
			if len(scan.WaitedFor) != 1 || in.StateRows.Load() != 0 {
				t.Fatalf("%s: %s waited for %v; %s stored %d rows, want a wait for its sibling and none",
					label, scan.Name, scan.WaitedFor, in.Name, in.StateRows.Load())
			}
			t.Logf("%s: held %d B, lineitem first %d B", label, res.PeakStateBytes, peak)
			if 2*res.PeakStateBytes > peak {
				t.Fatalf("%s: held %d B, lineitem first %d B; want at most half of it", label, res.PeakStateBytes, peak)
			}
		}
	}
}

// TestTableIWaitGraph runs the Table I queries under all four strategies,
// each under a deadline: a run that hangs — a start-order wait that closed a
// cycle never ends — is cancelled and fails with its wait graph. Every run's
// graph, data edges plus waits, is acyclic, and every strategy returns
// Baseline's rows. Q1A under Feed-forward and Cost-based has sibling edges
// the graph must refuse (a filter wait already runs the other way), so a
// graph built without the cycle check hangs there.
func TestTableIWaitGraph(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	queries := tableIQueries(t, cat)
	refused := 0
	for _, id := range []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"} {
		var want []Row
		for _, strat := range AllStrategies() {
			label := id + "/" + strat.String()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			rows, err := eng.QueryStream(ctx, queries[id], Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := rows.drain()
			cancel()
			if err != nil {
				t.Fatalf("%s: %v; wait graph:\n%s", label, err, waitGraphText(rows.ectx))
			}
			data, waits, ref := rows.ectx.WaitGraph()
			if cyc := waitCycle(append(data, waits...)); cyc != "" {
				t.Fatalf("%s: the wait graph has the cycle %s\n%s", label, cyc, waitGraphText(rows.ectx))
			}
			refused += len(ref)
			if want == nil {
				want = res.Rows
			} else if !sameAnswer(res.Rows, want) {
				t.Fatalf("%s: rows differ from Baseline's\ngot:  %v\nwant: %v", label, canon(res.Rows), canon(want))
			}
		}
	}
	if refused == 0 {
		t.Fatal("no run refused a wait: the cycle check is not exercised")
	}
}

// TestQ1AFeedForwardWorkingSets: on Q1A under Feed-forward the partsupp scan
// feeding j4.right waits for j4.left (15 rows against 40 k, start order's
// sibling edge), so j4.left completes first and publishes its working set,
// and j4.right, short-circuited from its first row, builds none: its route
// calls no OnStore once the sibling is done. Over 20 runs no input of the
// query allocates a working set it then drops unpublished.
func TestQ1AFeedForwardWorkingSets(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	sql := tableIQueries(t, cat)["Q1A"]
	for run := 0; run < 20; run++ {
		res, err := eng.Query(context.Background(), sql, Options{Strategy: FeedForward})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range res.Stats.Ops() {
			if op.FilterWorking.Peak() > 0 && op.FilterBytes.Load() == 0 {
				t.Fatalf("run %d: %s dropped a %d B working set unpublished\n%s", run, op.Name, op.FilterWorking.Peak(), res.Stats.Report())
			}
			switch op.Name {
			case "join:q.j4.left":
				if op.FilterBytes.Load() == 0 {
					t.Fatalf("run %d: j4.left published no set\n%s", run, res.Stats.Report())
				}
			case "join:q.j4.right":
				if op.StateRows.Load() != 0 || op.FilterWorking.Peak() != 0 {
					t.Fatalf("run %d: j4.right stored %d rows, work-peak %d B; want none\n%s", run, op.StateRows.Load(), op.FilterWorking.Peak(), res.Stats.Report())
				}
			}
		}
	}
}

// sameAnswer reports whether a and b hold the same rows, floats equal to a
// relative 1e-9: a parallel plan sums in no fixed order, so a float's last
// bits vary, and a value at a rounding boundary (Q4A's IRAN revenue is
// 60775.98975) can round either way at any fixed number of digits.
func sameAnswer(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	sorted := func(rows []Row) []Row {
		rows = slices.Clone(rows)
		key := func(r Row) string {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = FormatValueRounded(v, 6)
			}
			return strings.Join(parts, "|")
		}
		slices.SortFunc(rows, func(x, y Row) int { return strings.Compare(key(x), key(y)) })
		return rows
	}
	a, b = sorted(a), sorted(b)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, x := range a[i] {
			y := b[i][j]
			if x.K == types.KindFloat && y.K == types.KindFloat {
				if math.Abs(x.F-y.F) > 1e-9*max(math.Abs(x.F), math.Abs(y.F), 1) {
					return false
				}
			} else if x.String() != y.String() {
				return false
			}
		}
	}
	return true
}
