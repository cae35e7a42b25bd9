package sip

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/stats"
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
// queries it was built for. In Q4A and Q5A lineitem's join sibling has at
// least 4× fewer source rows, so under Baseline and Magic the lineitem scan
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
			if got, want := canon(res.Rows), canon(rows); !slices.Equal(got, want) {
				t.Fatalf("%s: rows differ from the lineitem-first run\ngot:  %v\nwant: %v", label, got, want)
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
