package expr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// The vectorized evaluator's acceptance property: EvalBatch / EvalBool
// agree lane-for-lane with the scalar reference Eval on randomized
// expression trees, batches (including NULLs and empty batches), and
// selection vectors (full, empty, strided, random, in-place).

// exprGen builds random well-typed expressions over a fixed test schema.
// Comparisons stay within a type family (numeric vs numeric, string vs
// string) — the binder enforces the same, and types.Compare panics on
// cross-family comparisons by design.
type exprGen struct{ r *rand.Rand }

// Test schema: column index → kind.
var genCols = []types.Kind{
	types.KindInt, types.KindInt, types.KindFloat, types.KindString,
	types.KindDate, types.KindBool, types.KindInt,
}

func (g *exprGen) colOf(k types.Kind) Expr {
	idxs := []int{}
	for i, ck := range genCols {
		if ck == k {
			idxs = append(idxs, i)
		}
	}
	i := idxs[g.r.Intn(len(idxs))]
	return &ColRef{Idx: i, Col: types.Column{Name: "c", Kind: k}}
}

func (g *exprGen) numeric(depth int) Expr {
	if depth <= 0 {
		switch g.r.Intn(4) {
		case 0:
			return g.colOf(types.KindInt)
		case 1:
			return g.colOf(types.KindFloat)
		case 2:
			return &Const{V: types.Int(int64(g.r.Intn(21) - 10))}
		default:
			return &Const{V: types.Float(float64(g.r.Intn(41)-20) / 4)}
		}
	}
	switch g.r.Intn(6) {
	case 0, 1, 2:
		ops := []BinOp{OpAdd, OpSub, OpMul, OpDiv}
		return &Binary{Op: ops[g.r.Intn(len(ops))], L: g.numeric(depth - 1), R: g.numeric(depth - 1)}
	case 3:
		return &Year{E: g.colOf(types.KindDate)}
	default:
		return g.numeric(0)
	}
}

func (g *exprGen) boolean(depth int) Expr {
	if depth <= 0 {
		if g.r.Intn(2) == 0 {
			return g.colOf(types.KindBool)
		}
		return &Const{V: types.Bool(g.r.Intn(2) == 0)}
	}
	cmps := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	switch g.r.Intn(8) {
	case 0, 1:
		// Numeric comparison (dates and booleans are numeric for Compare).
		mk := func() Expr {
			switch g.r.Intn(3) {
			case 0:
				return g.numeric(depth - 1)
			case 1:
				return g.colOf(types.KindDate)
			default:
				return g.colOf(types.KindBool)
			}
		}
		return &Binary{Op: cmps[g.r.Intn(len(cmps))], L: mk(), R: mk()}
	case 2:
		// String comparison; constants exercise the col⊕const kernels.
		strs := []Expr{g.colOf(types.KindString), &Const{V: types.Str(randWord(g.r))}}
		l := strs[g.r.Intn(2)]
		r := strs[g.r.Intn(2)]
		return &Binary{Op: cmps[g.r.Intn(len(cmps))], L: l, R: r}
	case 3:
		return &Like{E: g.colOf(types.KindString), Pattern: randPattern(g.r), Negate: g.r.Intn(2) == 0}
	case 4:
		return &Not{E: g.boolean(depth - 1)}
	case 5, 6:
		op := OpAnd
		if g.r.Intn(2) == 0 {
			op = OpOr
		}
		// Occasionally feed a non-boolean operand: scalar AND rejects only
		// bool-false/NULL operands (a bare number passes), while OR keys on
		// Truth() — the vectorized connectives must reproduce both.
		mk := func() Expr {
			if g.r.Intn(4) == 0 {
				return g.numeric(depth - 1)
			}
			return g.boolean(depth - 1)
		}
		return &Binary{Op: op, L: mk(), R: mk()}
	default:
		return g.boolean(0)
	}
}

func randWord(r *rand.Rand) string {
	n := r.Intn(5)
	b := make([]byte, n)
	for i := range b {
		b[i] = "abx%"[r.Intn(4)]
	}
	return string(b)
}

func randPattern(r *rand.Rand) string {
	n := r.Intn(4)
	b := make([]byte, n)
	for i := range b {
		b[i] = "ab%_"[r.Intn(4)]
	}
	return string(b)
}

// randBatch builds n tuples over genCols with ~12% NULLs.
func randBatch(r *rand.Rand, n int) []types.Tuple {
	b := make([]types.Tuple, n)
	for i := range b {
		t := make(types.Tuple, len(genCols))
		for c, k := range genCols {
			if r.Intn(8) == 0 {
				t[c] = types.Null()
				continue
			}
			switch k {
			case types.KindInt:
				t[c] = types.Int(int64(r.Intn(21) - 10))
			case types.KindFloat:
				t[c] = types.Float(float64(r.Intn(41)-20) / 4)
			case types.KindString:
				t[c] = types.Str(randWord(r))
			case types.KindDate:
				t[c] = types.Date(int64(r.Intn(40000) - 5000))
			case types.KindBool:
				t[c] = types.Bool(r.Intn(2) == 0)
			}
		}
		b[i] = t
	}
	return b
}

// selVariants enumerates selection shapes over an n-lane batch.
func selVariants(r *rand.Rand, n int) [][]int32 {
	full := make([]int32, n)
	for i := range full {
		full[i] = int32(i)
	}
	var every2, sub []int32
	for i := 0; i < n; i += 2 {
		every2 = append(every2, int32(i))
	}
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			sub = append(sub, int32(i))
		}
	}
	out := [][]int32{full, {}, every2, sub}
	if n > 0 {
		out = append(out, []int32{int32(r.Intn(n))})
	}
	return out
}

func valueEq(a, b types.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.F != b.F && !(a.F != a.F && b.F != b.F) { // NaN-tolerant
		return false
	}
	return a.I == b.I && a.S == b.S
}

// poison marks lanes the evaluator must not touch.
var poison = types.Value{K: types.Kind(0xEE), I: -1}

func TestVectorizedEvalMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(0xAB5E11))
	g := &exprGen{r: r}
	for iter := 0; iter < 400; iter++ {
		var e Expr
		if iter%2 == 0 {
			e = g.boolean(3)
		} else {
			e = g.numeric(3)
		}
		c := Compile(e)
		for _, n := range []int{0, 1, 7, 128, 130} {
			b := randBatch(r, n)
			for _, sel := range selVariants(r, n) {
				// EvalBatch: selected lanes match scalar Eval, dead lanes
				// stay untouched.
				dst := make([]types.Value, n)
				for i := range dst {
					dst[i] = poison
				}
				c.EvalBatch(b, sel, dst)
				inSel := make(map[int32]bool, len(sel))
				for _, l := range sel {
					inSel[l] = true
					want := e.Eval(b[l])
					if !valueEq(want, dst[l]) {
						t.Fatalf("iter %d: %s lane %d = %v, scalar %v", iter, e, l, dst[l], want)
					}
				}
				for l := 0; l < n; l++ {
					if !inSel[int32(l)] && dst[l] != poison {
						t.Fatalf("iter %d: %s wrote dead lane %d", iter, e, l)
					}
				}

				// EvalBool: survivors are exactly the scalar-TRUE lanes, in
				// order — both into a fresh buffer and narrowing in place.
				var want []int32
				for _, l := range sel {
					if e.Eval(b[l]).Truth() {
						want = append(want, l)
					}
				}
				got := c.EvalBool(b, sel, nil)
				checkSel(t, e, "fresh", want, got)
				inPlace := append([]int32(nil), sel...)
				got = c.EvalBool(b, inPlace, inPlace)
				checkSel(t, e, "in-place", want, got)
			}
		}
	}
}

func checkSel(t *testing.T, e Expr, mode string, want, got []int32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s (%s): %d survivors, scalar %d (got %v want %v)", e, mode, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s (%s): survivor[%d] = %d, scalar %d", e, mode, i, got[i], want[i])
		}
	}
}

// TestEvalBoolSteadyStateAllocs pins the filter hot path to zero
// allocations per batch once scratch has warmed up.
func TestEvalBoolSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := randBatch(r, 128)
	pred := &Binary{Op: OpAnd,
		L: &Binary{Op: OpGt, L: &ColRef{Idx: 0, Col: types.Column{Kind: types.KindInt}}, R: &Const{V: types.Int(-5)}},
		R: &Binary{Op: OpOr,
			L: &Binary{Op: OpLt, L: &ColRef{Idx: 1, Col: types.Column{Kind: types.KindInt}}, R: &Const{V: types.Int(5)}},
			R: &Binary{Op: OpGe, L: &ColRef{Idx: 2, Col: types.Column{Kind: types.KindFloat}}, R: &Const{V: types.Float(0)}}}}
	c := Compile(pred)
	sel := make([]int32, 128)
	for i := range sel {
		sel[i] = int32(i)
	}
	out := make([]int32, 0, 128)
	c.EvalBool(b, sel, out) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		c.EvalBool(b, sel, out)
	})
	if allocs != 0 {
		t.Fatalf("EvalBool steady state allocates %.1f per batch, want 0", allocs)
	}
}

// TestCompileNil mirrors the executor's convention: absent expressions
// compile to nil.
func TestCompileNil(t *testing.T) {
	if Compile(nil) != nil {
		t.Fatal("Compile(nil) != nil")
	}
}

// rowVectors is the test's ColumnVectors over a row batch, with the
// catalog's rule: a vector exists only when every row holds the same
// integer-backed kind, or every row a DECIMAL, and dictionary codes only
// when every row holds a string or NULL.
type rowVectors []types.Tuple

func (rv rowVectors) kindOf(col int) types.Kind {
	if len(rv) == 0 {
		return types.KindNull
	}
	k := rv[0][col].K
	for _, r := range rv {
		if r[col].K != k {
			return types.KindNull
		}
	}
	return k
}

func (rv rowVectors) IntVec(col int) ([]int64, types.Kind) {
	k := rv.kindOf(col)
	if k != types.KindInt && k != types.KindDate && k != types.KindBool {
		return nil, types.KindNull
	}
	v := make([]int64, len(rv))
	for i, r := range rv {
		v[i] = r[col].I
	}
	return v, k
}

func (rv rowVectors) FloatVec(col int) []float64 {
	if rv.kindOf(col) != types.KindFloat {
		return nil
	}
	v := make([]float64, len(rv))
	for i, r := range rv {
		v[i] = r[col].F
	}
	return v
}

func (rv rowVectors) StrCodes(col int) ([]int32, []string) {
	if len(rv) == 0 {
		return nil, nil
	}
	codes, dict, ids := make([]int32, len(rv)), []string{""}, map[string]int32{}
	for i, r := range rv {
		switch v := r[col]; v.K {
		case types.KindNull:
		case types.KindString:
			c, ok := ids[v.S]
			if !ok {
				c = int32(len(dict))
				ids[v.S], dict = c, append(dict, v.S)
			}
			codes[i] = c
		default:
			return nil, nil
		}
	}
	return codes, dict
}

// TestVecCmpMatchesEvalBool is the typed kernels' acceptance property:
// over random numeric column ⊕ constant comparisons (either operand order,
// every constant kind including NULL and cross-kind numerics, NaN and ±Inf in
// the data; strings are TestVecCmpStringsMatchEvalBool's), a compiled VecCmp keeps exactly the lanes Compiled.EvalBool keeps,
// for every chunk window and selection shape, fresh and in place — and it
// declines to compile whenever the column has no vector.
func TestVecCmpMatchesEvalBool(t *testing.T) {
	r := rand.New(rand.NewSource(0x5CA9))
	cmps := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	// Column 6 keeps its NULLs (no vector); the rest are made NULL-free.
	table := randBatch(r, 3000)
	for _, row := range table {
		for c, k := range genCols {
			if c == 6 || !row[c].IsNull() {
				continue
			}
			switch k {
			case types.KindFloat:
				row[c] = types.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[r.Intn(4)])
			case types.KindString:
				row[c] = types.Str("")
			default:
				row[c] = types.Value{K: k, I: int64(r.Intn(3))}
			}
		}
	}
	vecs := rowVectors(table)
	randConst := func() types.Value {
		switch r.Intn(6) {
		case 0:
			return types.Int(int64(r.Intn(21) - 10))
		case 1:
			return types.Float(float64(r.Intn(41)-20) / 4)
		case 2:
			return types.Date(int64(r.Intn(40000) - 5000))
		case 3:
			return types.Bool(r.Intn(2) == 0)
		case 4:
			return types.Float(math.NaN())
		default:
			return types.Null()
		}
	}
	compiled := map[types.Kind]int{}
	for iter := 0; iter < 600; iter++ {
		col := r.Intn(len(genCols))
		if genCols[col] == types.KindString {
			continue // a string column against numeric constants is rejected by the binder
		}
		var e Expr = &Binary{Op: cmps[r.Intn(len(cmps))],
			L: &ColRef{Idx: col, Col: types.Column{Name: "c", Kind: genCols[col]}}, R: &Const{V: randConst()}}
		if r.Intn(2) == 0 {
			b := e.(*Binary)
			b.L, b.R = b.R, b.L
		}
		k := CompileVecCmp(e, vecs)
		if k == nil {
			continue
		}
		if col == 6 {
			t.Fatalf("%s compiled over a column with NULLs", e)
		}
		compiled[genCols[col]]++
		ref := Compile(e)
		for _, w := range [][2]int{{0, 0}, {0, 1}, {5, 133}, {1024, 2048}, {2990, 3000}, {0, 3000}} {
			lo, hi := w[0], w[1]
			ident := selVariants(r, hi-lo)[0]
			checkSel(t, e, "dense", ref.EvalBool(table[lo:hi], ident, nil), k.Sift(lo, hi, nil, nil))
			for _, sel := range selVariants(r, hi-lo) {
				sel = append([]int32{}, sel...) // nil would mean "every lane" to Sift
				want := ref.EvalBool(table[lo:hi], sel, nil)
				checkSel(t, e, "fresh", want, k.Sift(lo, hi, sel, nil))
				inPlace := append([]int32{}, sel...)
				checkSel(t, e, "in-place", want, k.Sift(lo, hi, inPlace, inPlace[:0]))
			}
		}
	}
	for _, kind := range []types.Kind{types.KindInt, types.KindFloat, types.KindDate} {
		if compiled[kind] == 0 {
			t.Fatalf("no %v comparison compiled to a vector kernel — test is vacuous (%v)", kind, compiled)
		}
	}
	if compiled[types.KindBool] != 0 {
		t.Fatal("BOOL columns compare as floats in types.Compare and must stay on the row kernel")
	}
	// Shapes that must not compile.
	for _, e := range []Expr{
		&Binary{Op: OpLt, L: &ColRef{Idx: 0}, R: &ColRef{Idx: 1}},                    // col ⊕ col
		&Binary{Op: OpAdd, L: &ColRef{Idx: 0}, R: &Const{V: types.Int(1)}},           // arithmetic
		&Binary{Op: OpLt, L: &ColRef{Idx: 0}, R: &Const{V: types.Float(1.5)}},        // INT column, DECIMAL constant
		&Binary{Op: OpEq, L: &ColRef{Idx: 0}, R: &Const{V: types.Str("a")}},          // INT column, string constant
		&Binary{Op: OpEq, L: &ColRef{Idx: 3}, R: &Const{V: types.Int(1)}},            // string column, INT constant
		&Binary{Op: OpEq, L: &ColRef{Idx: 2}, R: &Const{V: types.Null()}},            // NULL constant
		&Binary{Op: OpEq, L: &ColRef{Idx: 3}, R: &Const{V: types.Null()}},            // NULL constant, string column
		&Like{E: &ColRef{Idx: 0}, Pattern: "a%"},                                     // LIKE over a column without codes
		&Like{E: &Year{E: &ColRef{Idx: 4}}, Pattern: "1%"},                           // LIKE over a computed operand
		&Binary{Op: OpLt, L: &Const{V: types.Int(1)}, R: &Const{V: types.Int(2)}},    // no column
		&Binary{Op: OpLt, L: &Year{E: &ColRef{Idx: 4}}, R: &Const{V: types.Int(99)}}, // computed operand
	} {
		if CompileVecCmp(e, vecs) != nil {
			t.Fatalf("%s must stay on the row kernels", e)
		}
	}
}
