package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Add(10)
	g.Add(5)
	g.Add(-12)
	if g.Current() != 3 {
		t.Fatalf("current = %d", g.Current())
	}
	if g.Peak() != 15 {
		t.Fatalf("peak = %d", g.Peak())
	}
	g.Add(100)
	if g.Peak() != 103 {
		t.Fatalf("peak after growth = %d", g.Peak())
	}
}

func TestGaugeConcurrentPeak(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Peak() != 8000 || g.Current() != 8000 {
		t.Fatalf("peak=%d current=%d", g.Peak(), g.Current())
	}
}

func TestRegistryAggregation(t *testing.T) {
	r := NewRegistry()
	a := r.NewOp("scan:x")
	b := r.NewOp("join:y")
	a.StateBytes.Add(100)
	a.StateBytes.Add(-50)
	b.StateBytes.Add(200)
	r.FilterBytes.Add(10)
	if got := r.PeakStateBytes(); got != 100+200+10 {
		t.Fatalf("PeakStateBytes = %d", got)
	}
	a.Pruned.Add(3)
	b.Pruned.Add(4)
	if r.TotalPruned() != 7 {
		t.Fatalf("TotalPruned = %d", r.TotalPruned())
	}
	if len(r.Ops()) != 2 {
		t.Fatal("ops lost")
	}
}

func TestReportFormat(t *testing.T) {
	r := NewRegistry()
	op := r.NewOp("agg:test")
	op.In.Add(10)
	op.Out.Add(2)
	rep := r.Report()
	for _, want := range []string{"agg:test", "10", "filters:"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestWaitedReportAndReset: a scan's start-order wait prints on its row.
func TestWaitedReportAndReset(t *testing.T) {
	r := NewRegistry()
	op := r.NewOp("scan:big")
	op.Waited, op.WaitedFor = 1500*time.Microsecond, []string{"join:j.right", "agg:a"}
	if rep := r.Report(); !strings.Contains(rep, "waited=1.50ms→join:j.right,agg:a") {
		t.Fatalf("report lacks the wait:\n%s", rep)
	}
}

// TestTypedReport: a scan's row counts its pushed conjuncts that ran typed;
// a scan with none pushed prints no count.
func TestTypedReport(t *testing.T) {
	r := NewRegistry()
	op := r.NewOp("scan:part")
	op.Typed, op.Coded, op.Conjuncts = 1, 1, 2
	r.NewOp("scan:lineitem")
	rep := r.Report()
	if !strings.Contains(rep, "typed=1/2") || strings.Count(rep, "typed=") != 1 {
		t.Fatalf("report must print typed=1/2 on scan:part only:\n%s", rep)
	}
}

// TestJoinQError: the q-error summary covers join inputs with an estimate
// only, floors both sides at one row, and its report line and est= column
// print beside the counts.
func TestJoinQError(t *testing.T) {
	r := NewRegistry()
	for _, c := range []struct {
		name    string
		est     float64
		in      int64
		counted bool
	}{
		{"join:j0.left", 100, 400, true},  // 4
		{"join:j0.right", 50, 50, true},   // 1
		{"join:j1.left", 0.5, 0, true},    // both floored: 1
		{"join:j1.right", 10, 1000, true}, // 100
		{"join:j2.left", 0, 7, false},     // no estimate
		{"agg:a", 1, 500, false},          // not a join input
	} {
		op := r.NewOp(c.name)
		op.EstRows = c.est
		op.In.Add(c.in)
	}
	n, med, mx := r.JoinQError()
	if n != 4 || med != 2.5 || mx != 100 {
		t.Fatalf("JoinQError = %d, %v, %v; want 4, 2.5, 100", n, med, mx)
	}
	rep := r.Report()
	for _, want := range []string{"q-error: join inputs=4 median=2.50 max=100.00", "est=100 ", "est=1 "} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if n, _, _ := NewRegistry().JoinQError(); n != 0 {
		t.Fatalf("an empty registry has %d join inputs", n)
	}
}
