package sip

import (
	"context"
	"fmt"
	"testing"
)

// pointQueries returns an engine and point_wire's query with each of its 25
// literals: a one-row nation lookup whose literal changes per call, so every
// call normalizes, hits the plan cache, instantiates and runs the scan.
func pointQueries() (*Engine, []string) {
	eng := NewEngine(GenerateTPCH(DataConfig{ScaleFactor: 0.005}))
	sqls := make([]string, 25)
	for k := range sqls {
		sqls[k] = fmt.Sprintf("SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = %d", k)
	}
	return eng, sqls
}

// TestPointQueryAllocs bounds what one in-process ad-hoc point query
// allocates: normalization, a plan-cache hit, instantiation, the scan
// goroutine and its channel, the cursor and the Result. The bound is what the
// goroutine-free point-query executor allocated (72–73); running every plan
// on the pipeline must not cost more.
func TestPointQueryAllocs(t *testing.T) {
	eng, sqls := pointQueries()
	ctx := context.Background()
	i := 0
	run := func() {
		res, err := eng.Query(ctx, sqls[i%len(sqls)], Options{})
		if err != nil {
			t.Fatalf("%s: %v", sqls[i%len(sqls)], err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", sqls[i%len(sqls)], len(res.Rows))
		}
		i++
	}
	for range sqls {
		run() // warm: the plan cache and the pools
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 72 {
		t.Fatalf("a point query allocated %.1f objects, want ≤ 72", allocs)
	}
}

// BenchmarkPointQuery is point_wire's query in process, without the wire:
// the per-query cost of the engine alone. Self-contained, so the file can be
// copied into an older checkout to compare.
func BenchmarkPointQuery(b *testing.B) {
	eng, sqls := pointQueries()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Query(ctx, sqls[i%len(sqls)], Options{})
		if err != nil || len(res.Rows) != 1 {
			b.Fatalf("%s: err %v", sqls[i%len(sqls)], err)
		}
	}
}
