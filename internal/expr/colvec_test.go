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

// TestVecCmpStringsMatchEvalBool: a string comparison or [NOT] LIKE compiled
// over dictionary codes keeps exactly the lanes Compiled.EvalBool keeps, under
// all six operators (either operand order) and LIKE patterns with %, _, a
// prefix, a suffix, an infix, the empty pattern and the empty string, against
// constants in and absent from the dictionary, over a column with NULLs and
// one without, with no selection, sparse ones and out aliasing sel — on a
// fresh kernel and on one that decided its codes in earlier calls.
func TestVecCmpStringsMatchEvalBool(t *testing.T) {
	r := rand.New(rand.NewSource(0xD1C7))
	words := []string{"", "a", "ab", "abc", "b", "ba", "MED CAN", "MED BOX", "Brand#34", "Brand#3", "x_y", "50%"}
	const n = 2000
	table := make([]types.Tuple, n)
	for i := range table {
		v := types.Str(words[r.Intn(len(words))])
		nv := v
		if r.Intn(6) == 0 {
			nv = types.Null()
		}
		table[i] = types.Tuple{v, nv}
	}
	vecs := rowVectors(table)
	consts := append([]string{"absent", "A", "abd", "Brand#35", "zz"}, words...) // absent ones first
	patterns := []string{"", "%", "_", "__", "a%", "%a", "%b%", "a_", "_b%", "MED%", "%CAN", "%D C%", "Brand#3_", "%#%", "x_y", "%\x25", "a%b%c", "%%"}
	var cases []Expr
	for col := 0; col < 2; col++ {
		ref := &ColRef{Idx: col, Col: types.Column{Name: "s", Kind: types.KindString}}
		for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			for _, c := range consts {
				k := &Const{V: types.Str(c)}
				cases = append(cases, &Binary{Op: op, L: ref, R: k}, &Binary{Op: op, L: k, R: ref})
			}
		}
		for _, p := range patterns {
			cases = append(cases, &Like{E: ref, Pattern: p}, &Like{E: ref, Pattern: p, Negate: true})
		}
	}
	for _, e := range cases {
		k := CompileVecCmp(e, vecs)
		if k == nil || !k.Coded() {
			t.Fatalf("%s did not compile to a kernel over codes", e)
		}
		ref := Compile(e)
		for _, w := range [][2]int{{0, 0}, {0, 7}, {5, 133}, {1024, 2000}, {0, n}} {
			lo, hi := w[0], w[1]
			ident := selVariants(r, hi-lo)[0]
			checkSel(t, e, "dense", ref.EvalBool(table[lo:hi], ident, nil), k.Sift(lo, hi, nil, nil))
			for _, sel := range selVariants(r, hi-lo) {
				sel = append([]int32{}, sel...)
				want := ref.EvalBool(table[lo:hi], sel, nil)
				checkSel(t, e, "fresh", want, k.Sift(lo, hi, sel, nil))
				inPlace := append([]int32{}, sel...)
				checkSel(t, e, "in-place", want, k.Sift(lo, hi, inPlace, inPlace[:0]))
			}
		}
	}
}
