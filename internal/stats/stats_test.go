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
