package optimizer

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/types"
)

func bind(t *testing.T, sql string) *plan.Block {
	t.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	blk, err := plan.BindSQL(cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func buildAndRun(t *testing.T, sql string) ([]types.Tuple, *Result) {
	t.Helper()
	blk := bind(t, sql)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext(stats.NewRegistry(), nil)
	for _, p := range res.Points {
		ctx.Register(p)
	}
	rows, err := exec.Run(ctx, res.Root)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return rows, res
}

func TestScanWithPushedPredicate(t *testing.T) {
	rows, _ := buildAndRun(t, "SELECT n_name FROM nation WHERE n_regionkey = 3")
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 European nations", len(rows))
	}
}

func TestTwoWayJoin(t *testing.T) {
	rows, _ := buildAndRun(t, `
		SELECT s_name, n_name FROM supplier, nation
		WHERE s_nationkey = n_nationkey`)
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	sup, _ := cat.Table("supplier")
	if int64(len(rows)) != sup.NumRows() {
		t.Fatalf("FK join must preserve supplier cardinality: %d vs %d", len(rows), sup.NumRows())
	}
}

func TestCrossJoinWithoutPredicate(t *testing.T) {
	rows, _ := buildAndRun(t, `SELECT r_name, n_name FROM region, nation`)
	if len(rows) != 5*25 {
		t.Fatalf("cross join = %d rows, want 125", len(rows))
	}
}

func TestResidualPredicate(t *testing.T) {
	// Non-equi cross-relation predicate must be applied as a residual.
	rows, _ := buildAndRun(t, `
		SELECT r_regionkey, n_nationkey FROM region, nation
		WHERE n_nationkey < r_regionkey`)
	for _, r := range rows {
		rk, _ := r[0].AsInt()
		nk, _ := r[1].AsInt()
		if nk >= rk {
			t.Fatalf("residual violated: %v", r)
		}
	}
	if len(rows) == 0 {
		t.Fatal("residual join produced nothing")
	}
}

func TestBushyShapeForFourWayJoin(t *testing.T) {
	blk := bind(t, `
		SELECT p_name FROM part, partsupp, supplier, nation
		WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey`)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	// 3 joins → 6 join points (plus agg/ship as applicable).
	joins := 0
	for _, p := range res.Points {
		if strings.Contains(p.Name, ".j") {
			joins++
		}
	}
	if joins != 6 {
		t.Fatalf("join points = %d, want 6", joins)
	}
}

func TestPointMetadata(t *testing.T) {
	blk := bind(t, `
		SELECT p_name FROM part, partsupp, supplier
		WHERE p_partkey = ps_partkey AND ps_suppkey = s_suppkey`)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	depths := map[int]bool{}
	for _, p := range res.Points {
		if !p.Stateful {
			continue
		}
		depths[p.Depth] = true
		if p.EstRows <= 0 {
			t.Fatalf("point %s has no cardinality estimate", p.Name)
		}
		if len(p.KeyCols) == 0 {
			t.Fatalf("stateful point %s has no key columns", p.Name)
		}
		for _, kc := range p.KeyCols {
			if kc < 0 || kc >= len(p.StateEqIDs) {
				t.Fatalf("point %s key col %d out of range", p.Name, kc)
			}
		}
		// Depth must equal ancestor count.
		if p.Depth != len(p.Ancestors) {
			t.Fatalf("point %s depth %d != ancestors %d", p.Name, p.Depth, len(p.Ancestors))
		}
	}
	// A 3-relation chain has points at ≥2 distinct depths.
	if len(depths) < 2 {
		t.Fatalf("expected a multi-level plan, depths = %v", depths)
	}
}

func TestEquivalenceClassesOnPoints(t *testing.T) {
	blk := bind(t, `
		SELECT p_name FROM part, partsupp
		WHERE p_partkey = ps_partkey`)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	// Both join inputs must expose the same class on their key column.
	var classes []int
	for _, p := range res.Points {
		if !p.Stateful {
			continue
		}
		classes = append(classes, p.StateEqIDs[p.KeyCols[0]])
	}
	if len(classes) != 2 || classes[0] != classes[1] || classes[0] < 0 {
		t.Fatalf("join key classes = %v", classes)
	}
}

func TestAggMasksNonGroupColumns(t *testing.T) {
	blk := bind(t, `
		SELECT n_name, sum(s_acctbal) FROM supplier, nation
		WHERE s_nationkey = n_nationkey GROUP BY n_name`)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	var agg *exec.Point
	for _, p := range res.Points {
		if strings.Contains(p.Name, ".agg") {
			agg = p
		}
	}
	if agg == nil {
		t.Fatal("agg point missing")
	}
	// Correctness invariant: every probe-eligible input column of an
	// aggregation must be a group-by source column. n_name is the only
	// group key; its source column may carry a class, everything else must
	// be masked to -1.
	eligible := 0
	for _, id := range agg.EqIDs {
		if id >= 0 {
			eligible++
		}
	}
	if eligible > 1 {
		t.Fatalf("agg point exposes %d probe-eligible columns, want ≤1", eligible)
	}
}

func TestAggregationValues(t *testing.T) {
	rows, _ := buildAndRun(t, `
		SELECT n_regionkey, count(*) FROM nation GROUP BY n_regionkey`)
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	var total int64
	for _, r := range rows {
		c, _ := r[1].AsInt()
		total += c
	}
	if total != 25 {
		t.Fatalf("counts sum to %d, want 25", total)
	}
}

func TestDistinctPlan(t *testing.T) {
	rows, res := buildAndRun(t, `SELECT DISTINCT n_regionkey FROM nation`)
	if len(rows) != 5 {
		t.Fatalf("distinct rows = %d", len(rows))
	}
	found := false
	for _, p := range res.Points {
		if strings.Contains(p.Name, "distinct") {
			found = true
		}
	}
	if !found {
		t.Fatal("distinct point missing")
	}
}

func TestDelayedRelationGetsDelay(t *testing.T) {
	blk := bind(t, "SELECT ps_availqty FROM partsupp")
	blk.Rels[0].Delayed = true
	cfg := Config{Delay: &exec.DelayConfig{EveryN: 100, Pause: 1}}
	res, err := Build(cfg, blk)
	if err != nil {
		t.Fatal(err)
	}
	scan := findScan(res.Root)
	if scan == nil || scan.Delay == nil {
		t.Fatal("delay not applied to tagged relation")
	}
}

func findScan(op exec.Op) *exec.Scan {
	switch v := op.(type) {
	case *exec.Scan:
		return v
	case *exec.Filter:
		return findScan(v.Child)
	case *exec.Project:
		return findScan(v.Child)
	case *exec.Ship:
		return findScan(v.Child)
	case *exec.Distinct:
		return findScan(v.Child)
	case *exec.HashJoin:
		if s := findScan(v.Left); s != nil {
			return s
		}
		return findScan(v.Right)
	case *exec.HashAgg:
		return findScan(v.Child)
	}
	return nil
}

func TestPredSelectivityHeuristics(t *testing.T) {
	blk := bind(t, `SELECT p_name FROM part WHERE p_size = 1`)
	eq := predSelectivity(blk, blk.Conjuncts[0].E)
	blk2 := bind(t, `SELECT p_name FROM part WHERE p_size < 10`)
	rng := predSelectivity(blk2, blk2.Conjuncts[0].E)
	blk3 := bind(t, `SELECT p_name FROM part WHERE p_type LIKE '%TIN'`)
	like := predSelectivity(blk3, blk3.Conjuncts[0].E)
	if !(eq < rng) {
		t.Fatalf("equality (%v) must be more selective than range (%v)", eq, rng)
	}
	if like <= 0 || like >= 1 || rng >= 1 {
		t.Fatal("selectivities out of (0,1)")
	}
	blk4 := bind(t, `SELECT p_name FROM part WHERE p_size <> 1`)
	if ne := predSelectivity(blk4, blk4.Conjuncts[0].E); ne <= rng {
		t.Fatal("<> must be weakly selective")
	}
}

func TestEstimateOrderingPrefersSelectiveJoins(t *testing.T) {
	// The planner must join region⋈nation before touching supplier:
	// verify by checking the final estimate is finite and the plan runs.
	rows, res := buildAndRun(t, `
		SELECT s_name FROM supplier, nation, region
		WHERE s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		  AND r_name = 'EUROPE'`)
	if res.EstRows <= 0 {
		t.Fatal("estimate missing")
	}
	// All suppliers in European nations.
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	sup, _ := cat.Table("supplier")
	nkIdx := sup.ColumnIndex("s_nationkey")
	euro := map[int64]bool{6: true, 7: true, 18: true, 21: true, 22: true}
	want := 0
	for _, r := range sup.Rows {
		nk, _ := r[nkIdx].AsInt()
		if euro[nk] {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

func TestProjectionEliminatesIdentity(t *testing.T) {
	// Aggregated output matching the post-agg schema must skip the
	// projection operator (cosmetic but keeps plans tight).
	blk := bind(t, `SELECT n_regionkey, count(*) FROM nation GROUP BY n_regionkey`)
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Root.(*exec.Project); ok {
		t.Fatal("identity projection not elided")
	}
}

func TestOrderedOutputsDeterministic(t *testing.T) {
	// Two builds of the same block produce plans with identical results.
	sql := `SELECT n_name, count(*) FROM supplier, nation
	        WHERE s_nationkey = n_nationkey GROUP BY n_name`
	a, _ := buildAndRun(t, sql)
	b, _ := buildAndRun(t, sql)
	canon := func(rows []types.Tuple) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = r.String()
		}
		sort.Strings(out)
		return out
	}
	ca, cb := canon(a), canon(b)
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("plans disagree: %s vs %s", ca[i], cb[i])
		}
	}
}

// TestStateDomainsOnQ17: every producer of Q17's p_partkey class carries the
// key columns' integer domain through its state schema — the join inputs fed
// by base tables, the sub-block's aggregation (a GROUP BY key), and the join
// inputs fed by the sub-block's output (a group key carried out of the
// block) — and no column outside a class carries one.
func TestStateDomainsOnQ17(t *testing.T) {
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.002})
	blk, err := plan.BindSQL(cat, `
		SELECT sum(l_extendedprice) / 7.0 FROM lineitem, part
		WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED CAN'
		  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(Config{}, blk)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := cat.Table("part")
	lo, hi, _ := part.IntRange(part.ColumnIndex("p_partkey"))
	li, _ := cat.Table("lineitem")
	llo, lhi, _ := li.IntRange(li.ColumnIndex("l_partkey"))
	producers := 0
	for _, p := range res.Points {
		for c, d := range p.StateDomains {
			if d.Known && p.StateEqIDs[c] < 0 {
				t.Fatalf("%s: column %d carries a domain but belongs to no class", p.Name, c)
			}
		}
		if !p.Stateful {
			continue
		}
		for _, k := range p.KeyCols {
			if p.StateEqIDs[k] < 0 {
				continue
			}
			producers++
			if k >= len(p.StateDomains) || !p.StateDomains[k].Known {
				t.Fatalf("%s: its key column (class %d) carries no domain", p.Name, p.StateEqIDs[k])
			}
			if d := p.StateDomains[k]; d.Lo < min(lo, llo) || d.Hi > max(hi, lhi) || d.Lo > d.Hi {
				t.Fatalf("%s: key domain [%d, %d] outside the key columns' [%d, %d]", p.Name, d.Lo, d.Hi, min(lo, llo), max(hi, lhi))
			}
		}
	}
	if producers < 5 { // j0 and j1's four inputs and the sub-block's aggregation
		t.Fatalf("%d producers keyed on a class, want 5", producers)
	}
}
