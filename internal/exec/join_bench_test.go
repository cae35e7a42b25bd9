package exec

import (
	"fmt"
	"testing"

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

func benchmarkJoin(b *testing.B, n, nkeys, parallelism int) {
	lrows, rrows := benchJoinRows(n, nkeys)
	b.ReportAllocs()
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		l := &Scan{Name: "l", Rows: lrows, Sch: intSchema("a", "x")}
		r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("a", "y")}
		j := NewHashJoin("j", l, r, []int{0}, []int{0}, AllCols(l, r), nil)
		j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true,
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
			Schema: l.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(n)}
		j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true,
			EqIDs: []int{0, -1}, StateEqIDs: []int{0, -1}, KeyCols: []int{0},
			Schema: r.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(n)}
		ctx := NewContext(stats.NewRegistry(), nil)
		ctx.Parallelism = parallelism
		jrows, err := Run(ctx, j)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		rows = len(jrows)
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
// where output materialization dominates.
func BenchmarkJoin(b *testing.B) {
	b.Run("Unique", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, 1) })
	b.Run("Dup8x8", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<12, 1) })
}

// BenchmarkJoinParallel is the scaling curve of the radix-partitioned
// join on the Unique shape: tuples/sec at P partitions. On a machine with
// fewer cores than P the curve flattens (partitioning still pays for the
// smaller, cache-resident per-partition tables but adds scatter overhead);
// BENCH_joins.json records the measuring machine's core count alongside.
func BenchmarkJoinParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Unique/P%d", p), func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, p) })
	}
}
