package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// siftRef is siftVec by types.Compare, one lane at a time.
func siftRef(vals []types.Value, c types.Value, op BinOp, sel []int32) []int32 {
	lt, eq, gt := cmpWants(op)
	var out []int32
	try := func(l int32) {
		if cmp := types.Compare(vals[l], c); cmp < 0 && lt || cmp == 0 && eq || cmp > 0 && gt {
			out = append(out, l)
		}
	}
	if sel == nil {
		for l := range vals {
			try(int32(l))
		}
	} else {
		for _, l := range sel {
			try(l)
		}
	}
	return out
}

// TestSiftVec checks the branch-free kernel against types.Compare over int64
// and float64 vectors holding the edge values (NaN, ±Inf, −0, MinInt64,
// MaxInt64), for constants equal to a value and between values, under all six
// operators, with no selection, a sparse one, and out aliasing sel; and that
// it allocates nothing when out has room for every lane, as the scan's does.
func TestSiftVec(t *testing.T) {
	r := rand.New(rand.NewSource(0x51F7))
	const n = 300
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64 + 1, math.MaxInt64 - 1}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MinInt64, math.MaxInt64, -1.5, 2.25, math.SmallestNonzeroFloat64}
	for len(ints) < n {
		ints = append(ints, 2*(r.Int63n(40)-20)) // even: odd constants fall between values
	}
	for len(floats) < n {
		floats = append(floats, float64(r.Intn(40)-20)/2)
	}
	r.Shuffle(n, func(i, j int) { ints[i], ints[j] = ints[j], ints[i] })
	r.Shuffle(n, func(i, j int) { floats[i], floats[j] = floats[j], floats[i] })
	intVals, floatVals := make([]types.Value, n), make([]types.Value, n)
	for i := range intVals {
		intVals[i], floatVals[i] = types.Int(ints[i]), types.Float(floats[i])
	}
	intConsts := []int64{math.MinInt64, math.MaxInt64, 0, -1, 7, -13, 1 << 40}
	floatConsts := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.MinInt64, math.MaxInt64, 2.25, 0.75, -9.5, 1e300}

	var sparse []int32
	for l := int32(0); l < n; l++ {
		if r.Intn(4) == 0 {
			sparse = append(sparse, l)
		}
	}
	check := func(name string, want, got []int32) {
		t.Helper()
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("%s: lanes %v, want %v", name, got, want)
		}
	}
	for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		lt, eq, gt := cmpWants(op)
		meq, mdl, mdg := b2i(eq), b2i(lt != eq), b2i(gt != eq)
		for _, sel := range [][]int32{nil, sparse} {
			for _, c := range intConsts {
				name := fmt.Sprintf("int %s %d sel=%d", op, c, len(sel))
				want := siftRef(intVals, types.Int(c), op, sel)
				check(name, want, siftVec(ints, c, meq, mdl, mdg, sel, nil))
				if sel != nil {
					inPlace := append([]int32{}, sel...)
					check(name+" in place", want, siftVec(ints, c, meq, mdl, mdg, inPlace, inPlace[:0]))
				}
			}
			for _, c := range floatConsts {
				name := fmt.Sprintf("float %s %v sel=%d", op, c, len(sel))
				want := siftRef(floatVals, types.Float(c), op, sel)
				check(name, want, siftVec(floats, c, meq, mdl, mdg, sel, nil))
				if sel != nil {
					inPlace := append([]int32{}, sel...)
					check(name+" in place", want, siftVec(floats, c, meq, mdl, mdg, inPlace, inPlace[:0]))
				}
			}
		}
	}

	out := make([]int32, 0, n)
	if a := testing.AllocsPerRun(20, func() {
		siftVec(floats, 0.5, 0, 1, 0, nil, out)
		siftVec(ints, 3, 1, 1, 1, sparse, out)
	}); a != 0 {
		t.Fatalf("siftVec with room for every lane allocated %.1f times a run", a)
	}
}

// BenchmarkSiftVec times the scan's typed predicate, v < c, over 1024-row
// chunks at 1%, 50% and 99% selectivity, where a data-dependent branch would
// predict well, badly and well again; ns/row is per lane. The chunks cycle
// through 64 Ki rows, so a branch predictor cannot learn one chunk's outcomes.
func BenchmarkSiftVec(b *testing.B) {
	const rows, chunk = 1 << 16, 1024
	r := rand.New(rand.NewSource(1))
	ints, floats := make([]int64, rows), make([]float64, rows)
	for i := range ints {
		ints[i] = r.Int63n(1_000_000)
		floats[i] = float64(ints[i]) / 100
	}
	out := make([]int32, 0, chunk)
	for _, pct := range []int64{1, 50, 99} {
		c := pct * 10_000
		b.Run(fmt.Sprintf("int/%d%%", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i * chunk % rows
				out = siftVec(ints[lo:lo+chunk], c, 0, 1, 0, nil, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/row")
		})
		b.Run(fmt.Sprintf("float/%d%%", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i * chunk % rows
				out = siftVec(floats[lo:lo+chunk], float64(c)/100, 0, 1, 0, nil, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/row")
		})
	}
}
