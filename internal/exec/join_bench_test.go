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

// benchmarkJoin runs the join over two scans of benchJoinRows.
func benchmarkJoin(b *testing.B, n, nkeys, parallelism int, routed bool) {
	lrows, rrows := benchJoinRows(n, nkeys)
	benchmarkJoinRows(b, lrows, rrows, 1, nkeys, parallelism, routed)
}

// benchmarkJoinRows runs the join of two scans of two-column integer rows on
// their first k columns, about nkeys distinct keys a side. routed gives the
// scans column vectors and wires each to its join input, so they route for
// the join — row ids with integer key words read from the vectors — instead
// of feeding router goroutines tuples, whose integer keys the routers read
// as words from the tuples. The inputs are ranked as the optimizer ranks a
// plan (RankSources), so a routed scan at least 4× larger than the other
// waits for it and probes at the source, as in a query.
func benchmarkJoinRows(b *testing.B, lrows, rrows []types.Tuple, k, nkeys, parallelism int, routed bool) {
	lsch, rsch := intSchema("a", "x"), intSchema("a", "y")
	keys := []int{0, 1}[:k]
	eq := []int{0, 1}
	if k == 1 {
		eq[1] = -1
	}
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
		j := NewHashJoin("j", l, r, keys, keys, AllCols(l, r), nil)
		j.LPoint = &Point{Name: "l", Bank: NewFilterBank(), Stateful: true,
			EqIDs: eq, StateEqIDs: eq, KeyCols: keys,
			Schema: l.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(len(lrows))}
		j.RPoint = &Point{Name: "r", Bank: NewFilterBank(), Stateful: true,
			EqIDs: eq, StateEqIDs: eq, KeyCols: keys,
			Schema: r.Sch, DomainDistinct: []float64{float64(nkeys), 0}, EstRows: float64(len(rrows))}
		if routed {
			l.Vecs, l.Point = ltab, j.LPoint
			r.Vecs, r.Point = rtab, j.RPoint
		}
		RankSources(j)
		reg := stats.NewRegistry()
		ctx := NewContext(reg, nil)
		ctx.Parallelism = parallelism
		ctx.Register(j.LPoint)
		ctx.Register(j.RPoint)
		jrows, err := Run(ctx, j)
		if err != nil {
			b.Fatalf("Run: %v", err)
		}
		rows = len(jrows)
		if got := findOp(reg, "scan:l").Routed != ""; got != routed {
			b.Fatalf("scan routed = %v, want %v", got, routed)
		}
		if routed && len(lrows) >= 4*len(rrows) && j.LPoint.StoredRows() != 0 {
			b.Fatalf("the left scan did not wait for the right: it stored %d rows", j.LPoint.StoredRows())
		}
	}
	b.StopTimer()
	if rows == 0 {
		b.Fatal("join produced no rows")
	}
	b.ReportMetric(float64(len(lrows)+len(rrows))*float64(b.N)/b.Elapsed().Seconds(), "tuples/sec")
}

// benchJoinTwoColMiss builds TPC-H Q5's top join (Table I Q4A's j4: lineitem
// ⋈ the rest on (orderkey, suppkey)) at SF 0.05 in shape. The right side
// stores 46 k keys: 2,300 orders, one in 32 of the orderkeys, each with the
// 20 suppliers of its customer's nation (suppkey ≡ nation mod 25). The left
// side probes 300 k lineitem rows, four per order over all 75 k orders, with
// suppkeys spread over 500: a probe's order is stored one time in 32 and its
// supplier is then one of the 20 one time in 25: 368 rows match.
func benchJoinTwoColMiss() (lrows, rrows []types.Tuple) {
	const orders, stride, suppliers, nations = 2_300, 32, 500, 25
	rrows = make([]types.Tuple, 0, orders*suppliers/nations)
	for o := int64(0); o < orders; o++ {
		for s := o % nations; s < suppliers; s += nations {
			rrows = append(rrows, types.Tuple{types.Int(o*stride + 1), types.Int(s)})
		}
	}
	lrows = make([]types.Tuple, 300_000)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i/4) + 1), types.Int(int64(i*7919) % suppliers)}
	}
	return lrows, rrows
}

// BenchmarkJoin measures the symmetric hash join end to end: tuples/sec is
// input tuples consumed per wall-clock second; allocs/op come from -benchmem.
// Unique is the 1:1 foreign-key shape (one match per tuple), where the
// per-input-tuple path — bank probe, hash, insert, probe — dominates;
// Dup8x8 joins 8 duplicates per key on each side (64 output rows per key),
// where output materialization dominates. The Routed variants feed both
// inputs from scans that route for the join. TwoColMissRouted is
// benchJoinTwoColMiss's shape from routing scans: the probe side waits for
// the stored side (start order), then 300 k two-column word keys walk the
// key table's chains and almost all miss.
func BenchmarkJoin(b *testing.B) {
	b.Run("Unique", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, 1, false) })
	b.Run("Dup8x8", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<12, 1, false) })
	b.Run("UniqueRouted", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<15, 1, true) })
	b.Run("Dup8x8Routed", func(b *testing.B) { benchmarkJoin(b, 1<<15, 1<<12, 1, true) })
	b.Run("TwoColMissRouted", func(b *testing.B) {
		lrows, rrows := benchJoinTwoColMiss()
		benchmarkJoinRows(b, lrows, rrows, 2, len(rrows), 1, true)
	})
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
