package exec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/types"
)

// panicOp panics on a tracked operator goroutine after forwarding its
// child's first batch, modeling a bug deep inside a running pipeline.
type panicOp struct {
	child Op
}

func (p *panicOp) Schema() *types.Schema { return p.child.Schema() }

func (p *panicOp) Start(ctx *Context) <-chan Batch {
	in := p.child.Start(ctx)
	out := make(chan Batch, 1)
	ctx.Spawn(func() {
		defer close(out)
		for b := range in {
			select {
			case out <- b:
			case <-ctx.Cancelled():
				PutBatch(b)
				return
			}
			panic("operator bug")
		}
	})
	return out
}

// TestPanicContained: a panic inside an operator goroutine fails only that
// query, with a typed *PanicError carrying the value and stack; the plan's
// goroutines all drain (Wait returns) and the process keeps serving.
func TestPanicContained(t *testing.T) {
	ctx := NewContext(stats.NewRegistry(), nil)
	rows := intRows([]int64{1}, []int64{2}, []int64{3})
	op := &panicOp{child: &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}}
	_, err := Run(ctx, op)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Val != "operator bug" {
		t.Fatalf("recovered value = %v", pe.Val)
	}
	if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("PanicError carries no stack: %v", err)
	}
	ctx.Wait() // quiescence: no goroutine outlives the failed query
	ctx.Cleanup()

	// The process (and a fresh query) keeps working after containment.
	got := runOp(t, &Scan{Name: "t", Rows: rows, Sch: intSchema("a")}, nil)
	if len(got) != 3 {
		t.Fatalf("follow-up query returned %d rows", len(got))
	}
}
