package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

func intCol(idx int) expr.Expr {
	return &expr.ColRef{Idx: idx, Col: types.Column{Kind: types.KindInt}}
}

func rowKeys(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return out
}

// inlineJoinPlan is the full shape the inline fast path accepts: a Project
// over a Filter over a HashJoin with a residual, whose left input is a
// Filter over a Scan and whose right input is a bare Scan.
func inlineJoinPlan(rng *rand.Rand, n int) Op {
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(rng.Intn(n / 2))), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(rng.Intn(n / 2))), types.Int(int64(i * 2))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: intSchema("a", "x")}
	r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("a", "y")}
	lf := &Filter{Child: l, Name: "lf", Pred: &expr.Binary{
		Op: expr.OpGt, L: intCol(1), R: &expr.Const{V: types.Int(2)}}}
	j := NewHashJoin("j", lf, r, []int{0}, []int{0}, AllCols(lf, r), &expr.Binary{
		Op: expr.OpLt, L: intCol(1), R: intCol(3)})
	above := &Filter{Child: j, Name: "jf", Pred: &expr.Binary{
		Op: expr.OpGt, L: intCol(3), R: &expr.Const{V: types.Int(4)}}}
	return &Project{Child: above, Name: "p",
		Exprs: []expr.Expr{intCol(0), &expr.Binary{Op: expr.OpAdd, L: intCol(1), R: intCol(3)}},
		Sch:   intSchema("a", "s")}
}

// TestInlineJoinMatchesPipelined is the single-join fast-path differential:
// TryRunInline must accept the Project/Filter/HashJoin(Filter/Scan, Scan)
// shape and produce exactly the pipelined executor's result set.
func TestInlineJoinMatchesPipelined(t *testing.T) {
	for _, n := range []int{8, 64, 512} {
		plan := inlineJoinPlan(rand.New(rand.NewSource(int64(n))), n)
		ictx := NewContext(stats.NewRegistry(), nil)
		got, ok := TryRunInline(ictx, plan)
		if !ok {
			t.Fatalf("n=%d: inline path rejected an eligible single-join plan", n)
		}
		want, err := Run(NewContext(stats.NewRegistry(), nil), plan)
		if err != nil {
			t.Fatalf("n=%d: pipelined run: %v", n, err)
		}
		g, w := rowKeys(got), rowKeys(want)
		if len(g) != len(w) {
			t.Fatalf("n=%d: inline %d rows, pipelined %d", n, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("n=%d: row %d: inline %s, pipelined %s", n, i, g[i], w[i])
			}
		}
	}
}

// TestInlineJoinRejections pins the shapes the fast path must refuse, since
// a wrongly accepted plan silently skips AIP and pacing semantics.
func TestInlineJoinRejections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mk := func() *HashJoin { return inlineJoinPlan(rng, 8).(*Project).Child.(*Filter).Child.(*HashJoin) }

	deep := mk()
	deep.Left = mk() // join under join
	deep.sch = deep.Left.Schema().Concat(deep.Right.Schema())
	if _, ok := TryRunInline(NewContext(stats.NewRegistry(), nil), deep); ok {
		t.Fatal("inline accepted a two-join tree")
	}

	paced := mk()
	paced.Right.(*Scan).BytesPerSec = 1 << 20
	if _, ok := TryRunInline(NewContext(stats.NewRegistry(), nil), paced); ok {
		t.Fatal("inline accepted a paced scan leaf")
	}

	big := mk()
	big.Right.(*Scan).Rows = make([]types.Tuple, InlineMaxRows+1)
	if _, ok := TryRunInline(NewContext(stats.NewRegistry(), nil), big); ok {
		t.Fatal("inline accepted an oversized scan leaf")
	}

	// Any AIP controller forces the pipelined lifecycle.
	underAIP := mk()
	if _, ok := TryRunInline(NewContext(stats.NewRegistry(), &controllerRecorder{}), underAIP); ok {
		t.Fatal("inline accepted a plan running under an AIP controller")
	}
}

// TestInlineNarrowJoin: an inline join emitting a pruned subset of its
// inputs' columns — the residual and the Project above read only those —
// returns what the pipelined join does and what a nested loop computes.
func TestInlineNarrowJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 300
	lrows := make([]types.Tuple, n)
	rrows := make([]types.Tuple, n)
	for i := range lrows {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(rng.Intn(40))), types.Int(int64(rng.Intn(100)))}
		rrows[i] = types.Tuple{types.Int(int64(rng.Intn(100))), types.Int(int64(-i)), types.Int(int64(rng.Intn(40)))}
	}
	l := &Scan{Name: "l", Rows: lrows, Sch: intSchema("id", "a", "x")}
	r := &Scan{Name: "r", Rows: rrows, Sch: intSchema("y", "id", "a")}
	// Emit (l.x, r.y, r.id) of (l.id, l.a, l.x, r.y, r.id, r.a); keys l.a = r.a.
	j := NewHashJoin("j", l, r, []int{1}, []int{2}, []int{2, 3, 4}, &expr.Binary{
		Op: expr.OpLt, L: intCol(0), R: intCol(1)})
	plan := &Project{Child: j, Name: "p", Sch: intSchema("d", "rid"),
		Exprs: []expr.Expr{&expr.Binary{Op: expr.OpSub, L: intCol(1), R: intCol(0)}, intCol(2)}}

	var want []string
	for _, lr := range lrows {
		for _, rr := range rrows {
			if lr[1].I == rr[2].I && lr[2].I < rr[0].I {
				want = append(want, fmt.Sprintf("%v", types.Tuple{types.Int(rr[0].I - lr[2].I), rr[1]}))
			}
		}
	}
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("empty reference")
	}
	got, ok := TryRunInline(NewContext(stats.NewRegistry(), nil), plan)
	if !ok {
		t.Fatal("inline path rejected a narrowed single-join plan")
	}
	piped, err := Run(NewContext(stats.NewRegistry(), nil), plan)
	if err != nil {
		t.Fatal(err)
	}
	for label, rows := range map[string][]types.Tuple{"inline": got, "pipelined": piped} {
		if g := rowKeys(rows); fmt.Sprint(g) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows, nested loop %d", label, len(g), len(want))
		}
	}
}
