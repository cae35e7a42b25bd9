package exec

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// rootRefsTable is one table of the row-id root differential: a key, a
// payload of the kind under test, and the DECIMAL the pushed predicate reads.
func rootRefsTable(n int, payload func(i int) types.Value, kind types.Kind) (*types.Schema, []types.Tuple) {
	sch := types.NewSchema(
		types.Column{Table: "t", Name: "k", Kind: types.KindInt},
		types.Column{Table: "t", Name: "p", Kind: kind},
		types.Column{Table: "t", Name: "v", Kind: types.KindFloat})
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), payload(i), types.Float(float64(i%50) / 2)}
	}
	return sch, rows
}

// TestRootRowRefDifferential: a root Project of plain column references over
// a source-selecting scan leaves as row-id batches, and must then return the
// rows and keep the accounting of the Project it stands in for — the Project
// being forced back by one computed column or by a delayed scan (rootScan
// keeps a modeled scan off the row-id root; it still selects at the source,
// so its stats rows are the same) — over a
// table whose every column has a vector, one with
// a string column and one with a NULL-holding column, with and without a
// pushed predicate.
func TestRootRowRefDifferential(t *testing.T) {
	const n = 10_000
	tables := map[string]struct {
		kind    types.Kind
		payload func(i int) types.Value
	}{
		"vectors": {types.KindDate, func(i int) types.Value { return types.Date(int64(9000 + i%365)) }},
		"string":  {types.KindString, func(i int) types.Value { return types.Str(fmt.Sprintf("s%d", i%97)) }},
		"nulls": {types.KindInt, func(i int) types.Value {
			if i%7 == 0 {
				return types.Null()
			}
			return types.Int(int64(-i))
		}},
	}
	// run starts root and reports its rows (the three shared columns of
	// each), whether any batch carried row ids, and the registry.
	run := func(root Op) ([]string, bool, *stats.Registry) {
		reg := stats.NewRegistry()
		ctx := NewContext(reg, nil)
		var batches []Batch
		rowIDs := false
		for b := range StartPlan(ctx, root) {
			rowIDs = rowIDs || b.Src != nil
			if b.Src != nil && (b.Tuples != nil || len(b.Sel) == 0 || len(b.Sel) > scanChunkRows) {
				t.Fatalf("malformed row-id batch: %d tuples, %d row ids", len(b.Tuples), len(b.Sel))
			}
			batches = append(batches, b)
		}
		ctx.Wait()
		ch := make(chan Batch, len(batches))
		for _, b := range batches {
			ch <- b
		}
		close(ch)
		rows := Collect(ch)
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r[:3].String()
		}
		sort.Strings(out)
		return out, rowIDs, reg
	}
	for name, tb := range tables {
		for _, filtered := range []bool{true, false} {
			sch, rows := rootRefsTable(n, tb.payload, tb.kind)
			// plan projects (v, k, p): a permutation, so Cols is exercised.
			plan := func(computed bool, delay *DelayConfig) Op {
				var child Op = &Scan{Name: "t", Rows: rows, Sch: sch, Delay: delay,
					Vecs: &catalog.Table{Name: "t", Schema: sch, Rows: rows}}
				if filtered {
					child = &Filter{Name: "t", Child: child, Pred: &expr.Binary{Op: expr.OpLt,
						L: &expr.ColRef{Idx: 2, Col: sch.Cols[2]}, R: &expr.Const{V: types.Float(11)}}}
				}
				exprs := []expr.Expr{
					&expr.ColRef{Idx: 2, Col: sch.Cols[2]}, &expr.ColRef{Idx: 0, Col: sch.Cols[0]}, &expr.ColRef{Idx: 1, Col: sch.Cols[1]}}
				if computed {
					exprs = append(exprs, &expr.Binary{Op: expr.OpAdd, L: exprs[1], R: &expr.Const{V: types.Int(1)}})
				}
				cols := make([]types.Column, len(exprs))
				for i, e := range exprs {
					cols[i] = types.Column{Name: fmt.Sprint("c", i), Kind: e.Kind()}
				}
				return &Project{Name: "q", Child: child, Exprs: exprs, Sch: types.NewSchema(cols...)}
			}
			label := fmt.Sprintf("%s filtered=%v", name, filtered)
			got, rowIDs, reg := run(plan(false, nil))
			if !rowIDs {
				t.Fatalf("%s: the root emitted no row-id batch", label)
			}
			if len(got) == 0 {
				t.Fatalf("%s: no rows — the test is vacuous", label)
			}
			for _, forced := range []struct {
				name string
				root Op
			}{
				{"computed column", plan(true, nil)},
				{"delayed scan", plan(false, &DelayConfig{EveryN: 4096, Pause: time.Millisecond})},
			} {
				want, viaIDs, wantReg := run(forced.root)
				if viaIDs {
					t.Fatalf("%s: %s still emitted row-id batches", label, forced.name)
				}
				sameRows(t, label+" vs "+forced.name, want, got)
				if len(reg.Ops()) != len(wantReg.Ops()) {
					t.Fatalf("%s: %d stats rows, want %d", label, len(reg.Ops()), len(wantReg.Ops()))
				}
				for i, op := range wantReg.Ops() {
					g := reg.Ops()[i]
					if g.Name != op.Name || g.In.Load() != op.In.Load() || g.Out.Load() != op.Out.Load() {
						t.Fatalf("%s vs %s: op %s in/out %d/%d, want %s %d/%d", label, forced.name,
							g.Name, g.In.Load(), g.Out.Load(), op.Name, op.In.Load(), op.Out.Load())
					}
				}
			}
		}
	}
}
