package optimizer

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/network"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/workload"
)

var tableI = sync.OnceValue(func() *catalog.Catalog { return tpch.Generate(tpch.Config{ScaleFactor: 0.01}) })

// buildTableI binds and builds one Table I query over the SF 0.01 catalog;
// remote relations (Q1C, Q3C) get a topology, so their plans ship.
func buildTableI(t *testing.T, id string) *Result {
	t.Helper()
	blk, cfg := bindTableI(t, id)
	res, err := Build(cfg, blk)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return res
}

// bindTableI binds one Table I query over the SF 0.01 catalog and returns
// the config buildTableI builds it with.
func bindTableI(t *testing.T, id string) (*plan.Block, Config) {
	t.Helper()
	spec, err := workload.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := plan.BindSQL(tableI(), spec.SQL(tableI()))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var cfg Config
	if len(spec.Remote) > 0 {
		cfg.Topology = network.NewTopology(&network.Link{BytesPerSec: network.Mbps(100)})
		for _, r := range blk.Rels {
			if r.Table != nil {
				r.Site = spec.Remote[r.Table.Name]
			}
		}
	}
	return blk, cfg
}

// joins lists the plan's hash joins, outermost first.
func joins(op exec.Op) []*exec.HashJoin {
	var out []*exec.HashJoin
	var walk func(op exec.Op)
	walk = func(op exec.Op) {
		switch v := op.(type) {
		case *exec.HashJoin:
			out = append(out, v)
			walk(v.Left)
			walk(v.Right)
		case *exec.Filter:
			walk(v.Child)
		case *exec.Project:
			walk(v.Child)
		case *exec.HashAgg:
			walk(v.Child)
		case *exec.Distinct:
			walk(v.Child)
		case *exec.Ship:
			walk(v.Child)
		}
	}
	walk(op)
	return out
}

// TestQ4AJoinWidths pins projection pushdown on TPC-H Q5 at SF 0.01, whose
// plan is (((customer ⋈ (nation ⋈ region)) ⋈ orders) ⋈ supplier) ⋈
// lineitem: each join side's emitted columns out of its input width (the
// cols= of -stats). A join attribute is kept only while its equivalence
// class is open — a member lies in a relation not yet joined — and then one
// member of the class, so the top join, which closes the last classes,
// hands the aggregation 3 columns — n_name and the two price columns — of
// the 29 its six tables have, and j3 hands it (o_orderkey, s_suppkey,
// n_name) for the (orderkey, suppkey) join. The stats report prints the
// same widths.
func TestQ4AJoinWidths(t *testing.T) {
	res := buildTableI(t, "Q4A")
	var got []string
	for _, j := range joins(res.Root) {
		nl := j.Left.Schema().Len()
		l := 0
		for _, c := range j.Out {
			if c < nl {
				l++
			}
		}
		got = append(got, fmt.Sprintf("%s %d/%d+%d/%d", j.Name, l, nl, len(j.Out)-l, j.Right.Schema().Len()))
	}
	want := []string{
		"q.j4 1/3+2/7", "q.j3 2/3+1/8", "q.j2 2/3+1/4", "q.j1 2/4+1/2", "q.j0 2/3+0/3",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Q4A join widths:\n got %q\nwant %q", got, want)
	}
	all := 0
	for _, name := range []string{"customer", "orders", "lineitem", "supplier", "nation", "region"} {
		tbl, err := tableI().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		all += tbl.Schema.Len()
	}
	if w := joins(res.Root)[0].Schema().Len(); w != 3 || all != 29 {
		t.Fatalf("Q4A's top join emits %d of %d columns, want 3 of 29", w, all)
	}

	inst, err := res.Instantiate(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := stats.NewRegistry()
	ctx := exec.NewContext(reg, nil)
	for _, p := range inst.Points {
		ctx.Register(p)
	}
	if _, err := exec.Run(ctx, inst.Root); err != nil {
		t.Fatal(err)
	}
	rep := reg.Report()
	if !strings.Contains(rep, "cols=2/7") || !strings.Contains(rep, "cols=1/3") {
		t.Fatalf("the stats report lacks the top join's widths:\n%s", rep)
	}
	// Every join and aggregation input prints its estimate beside what it
	// received, and the q-error line summarizes the join inputs.
	for _, p := range inst.Points {
		if !p.Stateful {
			continue
		}
		if want := fmt.Sprintf(" est=%.0f ", p.EstRows); !strings.Contains(rep, want) {
			t.Fatalf("the stats report lacks %s's%q:\n%s", p.Name, want, rep)
		}
	}
	if n, _, _ := reg.JoinQError(); n != 10 || !strings.Contains(rep, "q-error: join inputs=10 median=") {
		t.Fatalf("q-error over %d join inputs, want 10:\n%s", n, rep)
	}
}

// TestFeedForwardFiltersUnchangedByPruning runs Q1A–Q5A, and every other
// Table I query whose joins the closed-class rule narrows, under
// Feed-forward: pruning keeps every column of a class that is still open
// above the join, and drops a closed class only where no set over it could
// reach a live consumer, so the controller builds exactly the filters it
// built over unpruned join rows (the counts below were read before joins
// narrowed their rows, and again before closed classes were dropped).
func TestFeedForwardFiltersUnchangedByPruning(t *testing.T) {
	want := map[string]int64{
		"Q1A": 10, "Q2A": 3, "Q3A": 6, "Q4A": 7, "Q5A": 7,
		"Q1B": 10, "Q1C": 10, "Q1D": 10, "Q1E": 10,
		"Q3B": 6, "Q3C": 6, "Q3D": 6, "Q3E": 6,
		"Q4B": 7, "Q5B": 7,
	}
	for _, id := range slices.Sorted(maps.Keys(want)) {
		inst, err := buildTableI(t, id).Instantiate(nil)
		if err != nil {
			t.Fatal(err)
		}
		reg := stats.NewRegistry()
		ctx := exec.NewContext(reg, core.NewFeedForward(core.Options{Stats: reg, Cost: core.DefaultCostParams()}))
		for _, p := range inst.Points {
			ctx.Register(p)
		}
		if _, err := exec.Run(ctx, inst.Root); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := reg.FiltersMade.Load(); got != want[id] {
			t.Errorf("%s: Feed-forward made %d filters, want %d", id, got, want[id])
		}
	}
}

// instCases are the operator types Instantiate rebuilds, each with the fields
// a clone must keep. Runtime-only state and the injection points (replaced
// by fresh clones) are not compared.
var instCases = []struct {
	op   exec.Op
	same func(a, b exec.Op) bool
}{
	{&exec.Scan{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.Scan), b.(*exec.Scan)
		return x.Name == y.Name && x.Table == y.Table && x.Sch == y.Sch && len(x.Rows) == len(y.Rows) &&
			x.Vecs == y.Vecs && x.Site == y.Site && x.Delay == y.Delay && (x.Point == nil) == (y.Point == nil)
	}},
	{&exec.Filter{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.Filter), b.(*exec.Filter)
		return x.Name == y.Name && reflect.DeepEqual(x.Pred, y.Pred)
	}},
	{&exec.Project{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.Project), b.(*exec.Project)
		return x.Name == y.Name && x.Sch == y.Sch && reflect.DeepEqual(x.Exprs, y.Exprs)
	}},
	{&exec.HashJoin{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.HashJoin), b.(*exec.HashJoin)
		return x.Name == y.Name && slices.Equal(x.Out, y.Out) && slices.Equal(x.LKeys, y.LKeys) &&
			slices.Equal(x.RKeys, y.RKeys) && reflect.DeepEqual(x.Residual, y.Residual) &&
			x.Schema().Len() == y.Schema().Len() && len(x.Out) == y.Schema().Len() &&
			(x.LPoint == nil) == (y.LPoint == nil) && (x.RPoint == nil) == (y.RPoint == nil)
	}},
	{&exec.HashAgg{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.HashAgg), b.(*exec.HashAgg)
		return x.Name == y.Name && reflect.DeepEqual(x.GroupBy, y.GroupBy) && reflect.DeepEqual(x.Aggs, y.Aggs) &&
			x.Schema() == y.Schema() && (x.Point == nil) == (y.Point == nil)
	}},
	{&exec.Distinct{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.Distinct), b.(*exec.Distinct)
		return x.Name == y.Name && (x.Point == nil) == (y.Point == nil)
	}},
	{&exec.Ship{}, func(a, b exec.Op) bool {
		x, y := a.(*exec.Ship), b.(*exec.Ship)
		return x.Name == y.Name && x.Link == y.Link && x.Table == y.Table && x.Site == y.Site && (x.Point == nil) == (y.Point == nil)
	}},
}

// children returns an operator's inputs in a fixed order.
func children(op exec.Op) []exec.Op {
	switch v := op.(type) {
	case *exec.HashJoin:
		return []exec.Op{v.Left, v.Right}
	case *exec.Filter:
		return []exec.Op{v.Child}
	case *exec.Project:
		return []exec.Op{v.Child}
	case *exec.HashAgg:
		return []exec.Op{v.Child}
	case *exec.Distinct:
		return []exec.Op{v.Child}
	case *exec.Ship:
		return []exec.Op{v.Child}
	}
	return nil
}

// TestInstantiateKeepsOperatorFields builds every Table I query (and a
// DISTINCT one), instantiates each twice — the plan-cache hit path — and
// walks the template and both copies in step: every operator keeps the
// fields its instCases entry names (a join its Out, keys, residual and
// emitted width), and each rebuilt operator type occurs at least once.
func TestInstantiateKeepsOperatorFields(t *testing.T) {
	ids := []string{"Q1A", "Q1C", "Q2A", "Q3A", "Q3C", "Q4A", "Q5A"}
	seen := map[reflect.Type]bool{}
	check := func(label string, res *Result) {
		a, err := res.Instantiate(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Instantiate(nil)
		if err != nil {
			t.Fatal(err)
		}
		var walk func(tpl, x, y exec.Op)
		walk = func(tpl, x, y exec.Op) {
			for _, c := range instCases {
				if reflect.TypeOf(tpl) != reflect.TypeOf(c.op) {
					continue
				}
				seen[reflect.TypeOf(tpl)] = true
				if x == tpl || y == tpl || x == y {
					t.Fatalf("%s: %T was shared, not copied", label, tpl)
				}
				if reflect.TypeOf(x) != reflect.TypeOf(tpl) || reflect.TypeOf(y) != reflect.TypeOf(tpl) ||
					!c.same(tpl, x) || !c.same(tpl, y) {
					t.Fatalf("%s: instantiating %T lost a field:\ntemplate %+v\nfirst    %+v\nsecond   %+v", label, tpl, tpl, x, y)
				}
			}
			tc, xc, yc := children(tpl), children(x), children(y)
			for i := range tc {
				walk(tc[i], xc[i], yc[i])
			}
		}
		walk(res.Root, a.Root, b.Root)
	}
	for _, id := range ids {
		check(id, buildTableI(t, id))
	}
	blk, err := plan.BindSQL(tableI(), `SELECT DISTINCT n_name FROM nation, supplier WHERE n_nationkey = s_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	check("distinct", res)
	for _, c := range instCases {
		if !seen[reflect.TypeOf(c.op)] {
			t.Errorf("no plan exercised instantiating %T", c.op)
		}
	}
}
