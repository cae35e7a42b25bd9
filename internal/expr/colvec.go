package expr

import (
	"slices"

	"repro/internal/types"
)

// ColumnVectors is a base table's typed-vector view as a scan sees it:
// IntVec returns a column whose every row holds the same integer-backed
// kind (INT, DATE, BOOL) as one contiguous slice plus that kind, FloatVec
// an all-DECIMAL column; both return nil for any other column (NULLs, mixed
// kinds, strings), which keeps such columns on the row kernels.
type ColumnVectors interface {
	IntVec(col int) ([]int64, types.Kind)
	FloatVec(col int) []float64
}

// VecCmp is a column ⊕ constant comparison compiled against a typed column
// vector: the cmpColConst shape without the per-row dereference. It holds
// no scratch, so one VecCmp serves any number of goroutines.
type VecCmp struct {
	ints       []int64
	ci         int64
	floats     []float64
	cf         float64
	eq, dl, dg int // 1 if equal satisfies the operator; 1 where less / greater differ
}

// CompileVecCmp lowers e to a vector kernel when it is a comparison between
// a column of vecs and a non-NULL constant whose kinds evalBin compares
// without conversion surprises: an INT or DATE column against a constant of
// the same kind (integer compare), or a DECIMAL column against any numeric
// constant (float compare of the constant's AsFloat, exactly types.Compare's
// mixed-numeric rule). Everything else — col ⊕ col, strings, NULL constants,
// integer columns against a differently-kinded constant — returns nil and
// stays on Compiled.EvalBool.
func CompileVecCmp(e Expr, vecs ColumnVectors) *VecCmp {
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

// Sift narrows a selection over table rows [lo, hi): lanes are offsets from
// lo, sel lists the live ones in ascending order (nil means all hi-lo), and
// the lanes on which the comparison holds are appended to out, which may
// start at sel's first element (a lane is written only after it was read).
func (k *VecCmp) Sift(lo, hi int, sel, out []int32) []int32 {
	if k.ints != nil {
		return siftVec(k.ints[lo:hi], k.ci, k.eq, k.dl, k.dg, sel, out)
	}
	return siftVec(k.floats[lo:hi], k.cf, k.eq, k.dl, k.dg, sel, out)
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
