package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/magic"
	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/workload"
)

// bruteForce returns the least C_out over every bushy tree of g's
// relations, each tree enumerated on its own. A set's estimate is the lowest
// its valid splits give — a connected set's splits have connected sides
// that share a class, a disconnected set's are any — recomputed here from
// the relations up, without the DP's memo; only g.estimate, the estimate of
// one join, is shared with the optimizer.
func bruteForce(g *joinGraph) float64 {
	splits := func(s uint64, f func(l, r uint64)) {
		low := s & -s
		for l := (s - 1) & s; l != 0; l = (l - 1) & s {
			if l&low != 0 {
				f(l, s&^l)
			}
		}
	}
	valid := func(s, l, r uint64, shared bool) bool {
		return !g.connected(s) || g.connected(l) && g.connected(r) && shared
	}
	ests := map[uint64]float64{}
	var est func(s uint64) float64
	est = func(s uint64) float64 {
		if e, ok := ests[s]; ok {
			return e
		}
		e := math.Inf(1)
		if s&(s-1) == 0 {
			e = g.est[bits.TrailingZeros64(s)]
		}
		splits(s, func(l, r uint64) {
			if x, shared := g.estimate(l, r, est(l), est(r)); valid(s, l, r, shared) {
				e = math.Min(e, x)
			}
		})
		ests[s] = e
		return e
	}
	trees := map[uint64][]float64{} // set -> the C_out of each of its trees
	var costs func(s uint64) []float64
	costs = func(s uint64) []float64 {
		if c, ok := trees[s]; ok {
			return c
		}
		var out []float64
		if s&(s-1) == 0 {
			out = []float64{0}
		}
		splits(s, func(l, r uint64) {
			if _, shared := g.estimate(l, r, est(l), est(r)); !valid(s, l, r, shared) {
				return
			}
			for _, cl := range costs(l) {
				for _, cr := range costs(r) {
					out = append(out, cl+cr+est(s))
				}
			}
		})
		trees[s] = out
		return out
	}
	return slices.Min(costs(g.all()))
}

// checkTree walks the tree g.best chose for all of g's relations, calls
// visit on each join's split, and checks that the joins' estimates sum to
// the tree's cost.
func checkTree(t *testing.T, label string, g *joinGraph, visit func(s, l, r uint64)) {
	t.Helper()
	var sum func(s uint64) float64
	sum = func(s uint64) float64 {
		p := g.memo[s]
		if p == nil || s&(s-1) != 0 && p.left == 0 {
			t.Fatalf("%s: set %b has no plan", label, s)
		}
		if s&(s-1) == 0 {
			return 0
		}
		visit(s, p.left, s&^p.left)
		return sum(p.left) + sum(s&^p.left) + p.est
	}
	best := g.best(g.all())
	if got := sum(g.all()); math.Abs(got-best.cost) > 1e-9*best.cost {
		t.Fatalf("%s: the chosen tree's joins sum to %g, its cost says %g", label, got, best.cost)
	}
}

// checkBest compares g's DP plan with bruteForce: equal least C_out, and a
// chosen tree whose joins' estimates sum to it.
func checkBest(t *testing.T, label string, g *joinGraph) {
	t.Helper()
	if best, want := g.best(g.all()).cost, bruteForce(g); math.Abs(best-want) > 1e-9*want {
		t.Fatalf("%s: the DP's least C_out is %g, brute force finds %g", label, best, want)
	}
	checkTree(t, label, g, func(s, l, r uint64) {})
}

// TestJoinOrderMatchesBruteForceTableI: on every block of every Table I
// query, as bound and as the magic-sets rewrite leaves it, the DP's least
// C_out equals the brute-force enumerator's.
func TestJoinOrderMatchesBruteForceTableI(t *testing.T) {
	blocks := 0
	for _, spec := range workload.Queries() {
		for _, rewrite := range []bool{false, true} {
			blk, cfg := bindTableI(t, spec.ID)
			if rewrite {
				blk = magic.Rewrite(blk)
			}
			o := newBuilder(cfg, blk)
			var graphs []*joinGraph
			o.ordered = func(g *joinGraph) { graphs = append(graphs, g) }
			if _, err := o.buildBlock(blk, "q"); err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			for i, g := range graphs {
				if len(g.est) > 7 {
					t.Fatalf("%s: block %d joins %d relations", spec.ID, i, len(g.est))
				}
				checkBest(t, fmt.Sprintf("%s magic=%v block %d", spec.ID, rewrite, i), g)
				blocks++
			}
		}
	}
	t.Logf("%d blocks", blocks)
}

// randomBlock draws a block of n relations of three columns each, their
// estimates and distinct counts log-uniform, joined as a chain, a star, a
// cycle or at random (possibly disconnected, so cross products occur). An
// equi conjunct picks its columns at random, so classes span three or more
// relations; with probability 1/2 one relation gets a second member of a
// class it holds; a third of the blocks gets a residual conjunct.
func randomBlock(rng *rand.Rand, n int) (*plan.Block, []*component, string) {
	b := &plan.Block{EqIDs: make([]int, 3*n)}
	comps := make([]*component, n)
	for i := range n {
		b.Rels = append(b.Rels, &plan.Rel{Offset: 3 * i})
		est := math.Round(math.Pow(10, 5*rng.Float64()))
		comps[i] = &component{est: est, distinct: map[int]float64{}}
		for c := range 3 {
			comps[i].distinct[3*i+c] = math.Max(1, math.Round(est*math.Pow(10, -3*rng.Float64())))
		}
	}
	col := func(r int) int { return 3*r + rng.Intn(3) }
	ref := func(g int) expr.Expr { return &expr.ColRef{Idx: g, Col: types.Column{Kind: types.KindInt}} }
	equi := func(x, y int) {
		if rx, ry := b.RelOf(x), b.RelOf(y); rx != ry {
			c := plan.Conjunct{E: &expr.Binary{Op: expr.OpEq, L: ref(x), R: ref(y)}, IsEqui: true,
				LCol: x, RCol: y, LRel: rx, RRel: ry, Rels: []int{rx, ry}}
			if rx > ry {
				c.LCol, c.RCol, c.LRel, c.RRel, c.Rels = y, x, ry, rx, []int{ry, rx}
			}
			b.Conjuncts = append(b.Conjuncts, c)
		}
	}
	shape := []string{"chain", "star", "cycle", "random"}[rng.Intn(4)]
	for i := 1; i < n; i++ {
		switch shape {
		case "chain", "cycle":
			equi(col(i-1), col(i))
		case "star":
			equi(col(0), col(i))
		case "random":
			for j := range i {
				if rng.Intn(5) < 2 {
					equi(col(j), col(i))
				}
			}
		}
	}
	if shape == "cycle" && n > 2 {
		equi(col(n-1), col(0))
	}
	if len(b.Conjuncts) > 0 && rng.Intn(2) == 0 {
		// A second member in one relation: its other column equals a member
		// of an existing equi conjunct.
		c := b.Conjuncts[rng.Intn(len(b.Conjuncts))]
		x := 3*c.LRel + (c.LCol-3*c.LRel+1+rng.Intn(2))%3
		equi(x, c.RCol)
		shape += "+two-members"
	}
	if rng.Intn(3) == 0 {
		x, y := col(rng.Intn(n)), col(rng.Intn(n))
		if rx, ry := b.RelOf(x), b.RelOf(y); rx != ry {
			b.Conjuncts = append(b.Conjuncts, plan.Conjunct{E: &expr.Binary{Op: expr.OpLt, L: ref(x), R: ref(y)},
				Rels: []int{min(rx, ry), max(rx, ry)}})
			shape += "+residual"
		}
	}
	return b, comps, shape
}

// TestJoinOrderMatchesBruteForceGenerated: on 200 generated join graphs the
// DP's least C_out equals the brute-force enumerator's.
func TestJoinOrderMatchesBruteForceGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	seen := map[string]int{}
	for i := range 200 {
		b, comps, shape := randomBlock(rng, 2+rng.Intn(6))
		g, err := newJoinGraph(b, comps)
		if err != nil {
			t.Fatal(err)
		}
		if !g.connected(g.all()) {
			shape += "+cross"
		}
		for _, c := range g.classes {
			if bits.OnesCount64(c.rels) < len(c.members) {
				seen["two members"]++ // some relation holds two members of c
				break
			}
		}
		checkBest(t, fmt.Sprintf("graph %d (%s, %d relations)", i, shape, len(b.Rels)), g)
		seen[shape]++
	}
	t.Logf("shapes: %v", seen)
	if seen["two members"] == 0 || len(seen) < 8 {
		t.Fatalf("the generator missed shapes: %v", seen)
	}
}

// opLabel names a plan subtree by its tables: a scan by its table, a join as
// (left ⋈ right), a sub-block's aggregation as agg(…).
func opLabel(op exec.Op) string {
	switch v := op.(type) {
	case *exec.Scan:
		return v.Table
	case *exec.HashJoin:
		return "(" + opLabel(v.Left) + " ⋈ " + opLabel(v.Right) + ")"
	case *exec.HashAgg:
		return "agg(" + opLabel(v.Child) + ")"
	case *exec.Distinct:
		return "distinct(" + opLabel(v.Child) + ")"
	}
	if c := children(op); len(c) == 1 {
		return opLabel(c[0])
	}
	return "?"
}

// partitionsAt is the partition fan-out a join runs with at parallelism p:
// halved while its inputs' estimates give a partition under 1,024 rows
// (exec.clampPartitions).
func partitionsAt(p int, j *exec.HashJoin) int {
	est := j.LPoint.EstRows + j.RPoint.EstRows
	for p > 1 && est < float64(p)*1024 {
		p >>= 1
	}
	return p
}

// TestQ2JoinOrderPinned pins the Q2 family's plans (Q17: lineitem ⋈ (part ⋈
// the per-part average)), the plan the Q17 benchmark workloads run: join
// order, sides, keys and partition fan-out at 2 and at exec.MaxPartitions
// parallelism.
func TestQ2JoinOrderPinned(t *testing.T) {
	want := map[string][]string{
		"Q2A": {"q.j1 lineitem ⋈ (part ⋈ agg(lineitem)) on [1]=[0] P=2/32", "q.j0 part ⋈ agg(lineitem) on [0]=[0] P=1/1"},
		"Q2B": {"q.j1 lineitem ⋈ (part ⋈ agg(lineitem)) on [1]=[0] P=2/32", "q.j0 part ⋈ agg(lineitem) on [0]=[0] P=1/1"},
		"Q2C": {"q.j1 lineitem ⋈ (part ⋈ agg(lineitem)) on [1]=[0] P=2/16", "q.j0 part ⋈ agg(lineitem) on [0]=[0] P=1/1"},
		"Q2D": {"q.j1 lineitem ⋈ (part ⋈ agg(lineitem)) on [1]=[0] P=2/32", "q.j0 part ⋈ agg(lineitem) on [0]=[0] P=1/1"},
		"Q2E": {"q.j1 lineitem ⋈ (part ⋈ agg(lineitem)) on [1]=[0] P=2/32", "q.j0 part ⋈ agg(lineitem) on [0]=[0] P=2/2"},
	}
	for _, id := range []string{"Q2A", "Q2B", "Q2C", "Q2D", "Q2E"} {
		var got []string
		for _, j := range joins(buildTableI(t, id).Root) {
			got = append(got, fmt.Sprintf("%s %s ⋈ %s on %v=%v P=%d/%d", j.Name, opLabel(j.Left), opLabel(j.Right),
				j.LKeys, j.RKeys, partitionsAt(2, j), partitionsAt(exec.MaxPartitions, j)))
		}
		if !slices.Equal(got, want[id]) {
			t.Errorf("%s plan:\n got %q\nwant %q", id, got, want[id])
		}
	}
}

// BenchmarkBuild times planning one Table I query: bind + Build, the join
// order's dynamic program included, over the SF 0.01 catalog.
func BenchmarkBuild(b *testing.B) {
	for _, id := range []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"} {
		spec, err := workload.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		sql := spec.SQL(tableI())
		b.Run(id, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				blk, err := plan.BindSQL(tableI(), sql)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Build(Config{}, blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTableIJoinOrder pins the join trees the DP picks for Table I's other
// queries at SF 0.01. Q3A's relies on the composite-key cap: without it the
// correlated ps_supplycost = min(…) join on (partkey, supplycost) is
// estimated at a few rows instead of the rows of its smaller side, and
// partsupp is joined to the subquery before part is.
func TestTableIJoinOrder(t *testing.T) {
	want := map[string]string{
		"Q1A": "(((((part ⋈ agg((partsupp ⋈ (supplier ⋈ (nation ⋈ region))))) ⋈ partsupp) ⋈ supplier) ⋈ nation) ⋈ region)",
		"Q3A": "(((part ⋈ agg((partsupp ⋈ supplier))) ⋈ partsupp) ⋈ supplier)",
		"Q4A": "agg(((((customer ⋈ (nation ⋈ region)) ⋈ orders) ⋈ supplier) ⋈ lineitem))",
		"Q5A": "agg(((((part ⋈ partsupp) ⋈ lineitem) ⋈ orders) ⋈ (supplier ⋈ nation)))",
	}
	for _, id := range []string{"Q1A", "Q3A", "Q4A", "Q5A"} {
		if got := opLabel(buildTableI(t, id).Root); got != want[id] {
			t.Errorf("%s plan:\n got %s\nwant %s", id, got, want[id])
		}
	}
}

// TestJoinOrderLinearAboveTwelve: a block of more than maxBushyRels
// relations gets a tree in which one side of every join is a single
// relation, each join a valid split, and the tree's estimates sum to its
// cost.
func TestJoinOrderLinearAboveTwelve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := range 20 {
		b, comps, shape := randomBlock(rng, maxBushyRels+1+rng.Intn(3))
		g, err := newJoinGraph(b, comps)
		if err != nil {
			t.Fatal(err)
		}
		checkTree(t, fmt.Sprintf("graph %d (%s)", i, shape), g, func(s, l, r uint64) {
			if l&(l-1) != 0 && r&(r-1) != 0 {
				t.Fatalf("graph %d (%s): split %b | %b has no single-relation side", i, shape, l, r)
			}
			if _, shared := g.estimate(l, r, g.memo[l].est, g.memo[r].est); g.connected(s) && !(g.connected(l) && g.connected(r) && shared) {
				t.Fatalf("graph %d (%s): split %b | %b of a connected set is not valid", i, shape, l, r)
			}
		})
	}
}
