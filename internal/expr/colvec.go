package expr

import (
	"slices"
	"strings"

	"repro/internal/types"
)

// ColumnVectors is a base table's typed-vector view as a scan sees it:
// IntVec returns a column whose every row holds the same integer-backed
// kind (INT, DATE, BOOL) as one contiguous slice plus that kind, FloatVec
// an all-DECIMAL column, and StrCodes a column whose every row holds a
// string or NULL as dictionary codes (code 0 is NULL, dict[c] the string of
// code c ≥ 1). Each returns nil for any other column (mixed kinds, NULLs in
// a numeric column), which keeps such columns on the row kernels.
type ColumnVectors interface {
	IntVec(col int) ([]int64, types.Kind)
	FloatVec(col int) []float64
	StrCodes(col int) (codes []int32, dict []string)
}

// VecCmp is a column ⊕ constant comparison (or a column LIKE pattern)
// compiled against a typed column vector: the cmpColConst shape without the
// per-row dereference. A numeric VecCmp holds no scratch, so it serves any
// number of goroutines; one over dictionary codes memoizes the decision of
// each code it has met, so it serves one goroutine.
type VecCmp struct {
	ints       []int64
	ci         int64
	floats     []float64
	cf         float64
	eq, dl, dg int // 1 if equal satisfies the operator; 1 where less / greater differ

	// Dictionary codes: seen[c] is 0 until code c is decided, then 2, plus 1
	// when dict[c] passes decide. Code 0 (NULL) starts decided and failing.
	codes  []int32
	dict   []string
	seen   []uint8
	decide func(string) bool
}

// CompileVecCmp lowers e to a vector kernel when it is a comparison between
// a column of vecs and a non-NULL constant whose kinds evalBin compares
// without conversion surprises: an INT or DATE column against a constant of
// the same kind (integer compare), a DECIMAL column against any numeric
// constant (float compare of the constant's AsFloat, exactly types.Compare's
// mixed-numeric rule), or a string column against a string constant (a
// bytewise compare, as types.Compare makes it); or when e is a string column
// [NOT] LIKE a pattern. A string kernel decides each distinct string once,
// on first sight, and sifts over the codes. Everything else — col ⊕ col,
// NULL constants, integer columns against a differently-kinded constant,
// computed operands — returns nil and stays on Compiled.EvalBool.
func CompileVecCmp(e Expr, vecs ColumnVectors) *VecCmp {
	if l, ok := e.(*Like); ok {
		col, ok := l.E.(*ColRef)
		if !ok {
			return nil
		}
		pat, neg := l.Pattern, l.Negate
		return compileCodes(vecs, col.Idx, func(s string) bool { return likeMatch(s, pat) != neg })
	}
	b, ok := e.(*Binary)
	if !ok || !b.Op.IsComparison() {
		return nil
	}
	op := b.Op
	col, okCol := b.L.(*ColRef)
	c, okConst := b.R.(*Const)
	if !okCol || !okConst {
		col, okCol = b.R.(*ColRef)
		c, okConst = b.L.(*Const)
		op = mirrorCmp(op)
	}
	if !okCol || !okConst {
		return nil
	}
	lt, eq, gt := cmpWants(op)
	if c.V.K == types.KindString {
		cs := c.V.S
		return compileCodes(vecs, col.Idx, func(s string) bool {
			cmp := strings.Compare(s, cs)
			return cmp < 0 && lt || cmp == 0 && eq || cmp > 0 && gt
		})
	}
	k := &VecCmp{eq: b2i(eq), dl: b2i(lt != eq), dg: b2i(gt != eq)}
	if ints, kind := vecs.IntVec(col.Idx); ints != nil {
		if c.V.K != kind || (kind != types.KindInt && kind != types.KindDate) {
			return nil
		}
		k.ints, k.ci = ints, c.V.I
		return k
	}
	if floats := vecs.FloatVec(col.Idx); floats != nil {
		cf, numeric := c.V.AsFloat()
		if !numeric {
			return nil
		}
		k.floats, k.cf = floats, cf
		return k
	}
	return nil
}

// compileCodes is the kernel deciding a string predicate over column col's
// dictionary codes, or nil when the column has none.
func compileCodes(vecs ColumnVectors, col int, decide func(string) bool) *VecCmp {
	codes, dict := vecs.StrCodes(col)
	if codes == nil {
		return nil
	}
	seen := make([]uint8, len(dict))
	seen[0] = 2 // NULL passes nothing
	return &VecCmp{codes: codes, dict: dict, seen: seen, decide: decide}
}

// Coded reports whether the kernel sifts over dictionary codes.
func (k *VecCmp) Coded() bool { return k.codes != nil }

// Sift narrows a selection over table rows [lo, hi): lanes are offsets from
// lo, sel lists the live ones in ascending order (nil means all hi-lo), and
// the lanes on which the comparison holds are appended to out, which may
// start at sel's first element (a lane is written only after it was read).
func (k *VecCmp) Sift(lo, hi int, sel, out []int32) []int32 {
	switch {
	case k.codes != nil:
		return k.siftCodes(k.codes[lo:hi], sel, out)
	case k.ints != nil:
		return siftVec(k.ints[lo:hi], k.ci, k.eq, k.dl, k.dg, sel, out)
	}
	return siftVec(k.floats[lo:hi], k.cf, k.eq, k.dl, k.dg, sel, out)
}

// siftCodes is siftVec over dictionary codes: each lane is written at out's
// next slot, which advances by its code's decision bit. A code is decided the
// first time a lane holds it, so a near-unique column costs one decision a
// row, as the row kernel did, and a low-cardinality one a table lookup.
func (k *VecCmp) siftCodes(codes []int32, sel, out []int32) []int32 {
	n := len(out)
	out = slices.Grow(out, len(codes))[:n+len(codes)]
	seen := k.seen
	if sel == nil {
		for i, c := range codes {
			d := seen[c]
			if d == 0 {
				d = k.learn(c)
			}
			out[n] = int32(i)
			n += int(d & 1)
		}
		return out[:n]
	}
	for _, i := range sel {
		c := codes[i]
		d := seen[c]
		if d == 0 {
			d = k.learn(c)
		}
		out[n] = i
		n += int(d & 1)
	}
	return out[:n]
}

// learn decides code c and records the decision.
func (k *VecCmp) learn(c int32) uint8 {
	d := uint8(2)
	if k.decide(k.dict[c]) {
		d = 3
	}
	k.seen[c] = d
	return d
}

// siftVec decides each lane with the three-way outcome types.Compare would
// produce — less, greater, otherwise equal (so a NaN compares equal, as it
// does there) — without a branch on the data: each lane is written at out's
// next slot, which advances by the operator's 0/1 mask for the outcome (eq,
// flipped by dl on less and dg on greater). The write index never passes the
// read index, so out may start at sel's first element; with room for
// len(vec) lanes, out is not reallocated.
func siftVec[T int64 | float64](vec []T, c T, eq, dl, dg int, sel, out []int32) []int32 {
	n := len(out)
	out = slices.Grow(out, len(vec))[:n+len(vec)] // a sel lane is < len(vec)
	if sel == nil {
		for i, v := range vec {
			out[n] = int32(i)
			n += eq ^ (b2i(v < c)&dl | b2i(v > c)&dg)
		}
		return out[:n]
	}
	for _, i := range sel {
		v := vec[i]
		out[n] = i
		n += eq ^ (b2i(v < c)&dl | b2i(v > c)&dg)
	}
	return out[:n]
}

// b2i is 1 for true; the compiler lowers it to a flag move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
