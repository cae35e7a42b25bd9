package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/stats"
	"repro/internal/types"
)

// benchJoinRows builds two inputs of n tuples each over nkeys distinct join
// keys, the shape of the symmetric-hash-join hot path: every tuple is
// bank-probed, hashed, inserted, and probed against the other side.
func benchJoinRows(n, nkeys int) (lrows, rrows []types.Tuple) {
	lrows = make([]types.Tuple, n)
	rrows = make([]types.Tuple, n)
	for i := 0; i < n; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i % nkeys)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64((n - 1 - i) % nkeys)), types.Int(int64(i))}
	}
	return lrows, rrows
}

// benchmarkJoin runs the join over two scans. routed gives the scans column
// vectors and wires each to its join input, so they route for the join —
// row ids with integer key words — instead of feeding router goroutines
// tuples whose keys are encoded to bytes.
func benchmarkJoin(b *testing.B, n, nkeys, parallelism int, routed bool) {
	lrows, rrows := benchJoinRows(n, nkeys)
	lsch, rsch := intSchema("a", "x"), intSchema("a", "y")
	ltab := &catalog.Table{Name: "l", Schema: lsch, Rows: lrows}
	rtab := &catalog.Table{Name: "r", Schema: rsch, Rows: rrows}
	ltab.IntVec(0) // build the lazy sidecars outside the timed loop
	rtab.IntVec(0)
	ltab.RowBytes()
	rtab.RowBytes()
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		l := &Scan{Name: "l", Rows: lrows, Sch: lsch}
		r := &Scan{Name: "r", Rows: rrows, Sch: rsch}
		j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
		j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true,
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
			Schema: l.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(n)}
		j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true,
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
			Schema: r.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(n)}
		if routed {
			l.Vecs, l.Point = ltab, j.LPoint
			r.Vecs, r.Point = rtab, j.RPoint
		}
		reg := stats.NewRegistry()
		ctx := NewContext(reg, nil)
		ctx.Parallelism = parallelism
		jrows, err := Run(ctx, j)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		rows = len(jrows)
		if got := findOp(reg, "scan:l").Routed != ""; got != routed {
			b.Fatalf("scan routed = %v, want %v", got, routed)
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("join produced no rows")
	}
	b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// BenchmarkJoin measures the symmetric hash join end to end: tuples/sec is
// input tuples consumed per wall-clock second; allocs/op come from -benchmem.
// Unique is the 1:1 foreign-key shape (one match per tuple), where the
// per-input-tuple path — bank probe, hash, insert, probe — dominates;
// Dup8x8 joins 8 duplicates per key on each side (64 output rows per key),
// where output materialization dominates. The Routed variants feed both
// inputs from scans that route for the join.
func BenchmarkJoin(b *testing.B) {
	b.Run("Unique", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, 1, false) })
	b.Run("Dup8x8", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<12, 1, false) })
	b.Run("UniqueRouted", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, 1, true) })
	b.Run("Dup8x8Routed", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<12, 1, true) })
}

// BenchmarkJoinParallel is the scaling curve of the radix-partitioned
// join on the Unique shape: tuples/sec at P partitions. On a machine with
// fewer cores than P the curve flattens (partitioning still pays for the
// smaller, cache-resident per-partition tables but adds scatter overhead),
// so read it next to the machine's core count.
func BenchmarkJoinParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Unique/P%d", p), func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, p, false) })
	}
}
