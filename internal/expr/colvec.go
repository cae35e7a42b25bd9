package expr

import "repro/internal/types"

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
	lt, eq, gt bool // which three-way outcomes satisfy the operator
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
	k := &VecCmp{}
	k.lt, k.eq, k.gt = cmpWants(op)
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
// share sel's backing array (a lane is appended only after it was read).
func (k *VecCmp) Sift(lo, hi int, sel, out []int32) []int32 {
	if k.ints != nil {
		return siftVec(k.ints[lo:hi], k.ci, k.lt, k.eq, k.gt, sel, out)
	}
	return siftVec(k.floats[lo:hi], k.cf, k.lt, k.eq, k.gt, sel, out)
}

// siftVec decides each lane with the three-way outcome types.Compare would
// produce — less, greater, otherwise equal (so a NaN compares equal, as it
// does there) — tested against the operator's accepted outcomes.
func siftVec[T int64 | float64](vec []T, c T, lt, eq, gt bool, sel, out []int32) []int32 {
	if sel == nil {
		for i, v := range vec {
			if less, more := v < c, v > c; less && lt || more && gt || !less && !more && eq {
				out = append(out, int32(i))
			}
		}
		return out
	}
	for _, l := range sel {
		v := vec[l]
		if less, more := v < c, v > c; less && lt || more && gt || !less && !more && eq {
			out = append(out, l)
		}
	}
	return out
}
