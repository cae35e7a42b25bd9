package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/plan"
)

// maxBushyRels is the largest block whose join order considers every bushy
// split; above it one side of each split is a single relation. Either way
// the DP visits every connected subset: 2^(n-1) for a star of n relations.
const maxBushyRels = 12

// joinGraph is one block's join graph: a node per relation and a hyperedge
// per block-local equivalence class, built once per block. Relation i is
// bit i of a relation set.
type joinGraph struct {
	est     []float64   // relation -> estimated rows after its pushed predicates
	classes []joinClass // bit i of a class set is classes[i]
	resid   []residual
	bushy   bool
	memo    map[uint64]*subplan
}

// joinClass is a block-local equivalence class: the columns a union-find
// over the block's own equi conjuncts equates. Block.EqIDs is not used: it
// also unions across blocks, through columns a block may not join on.
type joinClass struct {
	rels    uint64    // relations holding a member
	members []int     // global column ids, ascending
	conj    []int     // the block's equi conjuncts over the class
	v       []float64 // relation -> fewest distinct values among its members
}

// residual is a conjunct over two or more relations outside every class; it
// is applied by the join that first holds all of them.
type residual struct {
	rels uint64
	sel  float64
}

// subplan is the cheapest join tree found for a relation set.
type subplan struct {
	est  float64 // estimated rows
	cost float64 // C_out: the estimated rows of every join in the tree
	left uint64  // the left side of the top join, holding the set's lowest relation; 0 for one relation
}

// newJoinGraph derives b's join graph from its compiled relations.
func newJoinGraph(b *plan.Block, comps []*component) (*joinGraph, error) {
	g := &joinGraph{bushy: len(b.Rels) <= maxBushyRels, memo: map[uint64]*subplan{}}
	for _, c := range comps {
		g.est = append(g.est, c.est)
	}
	parent := make([]int, len(b.EqIDs)) // union-find over global column ids
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, c := range b.Conjuncts {
		if c.IsEqui {
			parent[find(c.LCol)] = find(c.RCol)
		}
	}
	class := map[int]int{} // union-find root -> class index, in conjunct order
	for ci, c := range b.Conjuncts {
		if !c.IsEqui {
			if len(c.Rels) > 1 {
				g.resid = append(g.resid, residual{rels: relSet(c.Rels), sel: predSelectivity(b, c.E)})
			}
			continue
		}
		k, ok := class[find(c.LCol)]
		if !ok {
			k = len(g.classes)
			class[find(c.LCol)] = k
			g.classes = append(g.classes, joinClass{v: make([]float64, len(b.Rels))})
		}
		jc := &g.classes[k]
		jc.conj = append(jc.conj, ci)
		for _, m := range [2]int{c.LCol, c.RCol} {
			if !slices.Contains(jc.members, m) {
				jc.members = append(jc.members, m)
			}
		}
	}
	if len(b.Rels) > 64 || len(g.classes) > 64 {
		return nil, fmt.Errorf("optimizer: a block of %d relations and %d join classes; at most 64 of each are supported", len(b.Rels), len(g.classes))
	}
	for k := range g.classes {
		jc := &g.classes[k]
		slices.Sort(jc.members)
		for _, m := range jc.members {
			ri := b.RelOf(m)
			jc.rels |= 1 << ri
			if d := comps[ri].distinct[m]; jc.v[ri] == 0 || d < jc.v[ri] {
				jc.v[ri] = d
			}
		}
	}
	return g, nil
}

// relSet returns relation indices as a relation set.
func relSet(rels []int) uint64 {
	var s uint64
	for _, r := range rels {
		s |= 1 << r
	}
	return s
}

// all is the set of every relation of the block.
func (g *joinGraph) all() uint64 { return 1<<len(g.est) - 1 }

// connected reports whether the classes connect every relation of s.
func (g *joinGraph) connected(s uint64) bool {
	reach := s & -s
	for grown := true; grown; {
		grown = false
		for i := range g.classes {
			if c := g.classes[i].rels & s; c&reach != 0 && c&^reach != 0 {
				reach |= c
				grown = true
			}
		}
	}
	return reach == s
}

// distinct is the fewest distinct values of class c among s's members.
func (c *joinClass) distinct(s uint64) float64 {
	d := math.Inf(1)
	for m := s & c.rels; m != 0; m &= m - 1 {
		d = math.Min(d, c.v[bits.TrailingZeros64(m)])
	}
	return d
}

// estimate is the output of joining the disjoint sets l and r, estimated
// at el and er rows: |L|·|R| / max(V_L(K), V_R(K)) over the key K of the
// classes they share, where V_side(K) = min(Π per-class V, |side|) caps the
// independence assumption at the side's rows (a correlated composite key is
// not more selective than a unique one), times each residual the join
// completes. It also reports whether l and r share a class; without one it
// is a cross product.
func (g *joinGraph) estimate(l, r uint64, el, er float64) (est float64, shared bool) {
	vl, vr := 1.0, 1.0
	for i := range g.classes {
		c := &g.classes[i]
		if c.rels&l != 0 && c.rels&r != 0 {
			shared = true
			vl *= c.distinct(l)
			vr *= c.distinct(r)
		}
	}
	est = el * er
	if shared {
		est /= math.Max(1, math.Max(math.Min(vl, el), math.Min(vr, er)))
	}
	for _, rs := range g.resid {
		if rs.rels&^(l|r) == 0 && rs.rels&^l != 0 && rs.rels&^r != 0 {
			est *= rs.sel
		}
	}
	return math.Max(est, 1), shared
}

// splits calls f with every split of s into a left side holding s's lowest
// relation and a non-empty right side; unless g is bushy, one side of each
// is a single relation.
func (g *joinGraph) splits(s uint64, f func(l, r uint64)) {
	low := s & -s
	rest := s &^ low
	if !g.bushy {
		f(low, rest)
		for m := rest; m != 0; m &= m - 1 {
			if l := s &^ (m & -m); l != low {
				f(l, m&-m)
			}
		}
		return
	}
	for sub := uint64(0); sub != rest; sub = (sub - rest) & rest { // ascending subsets of rest
		f(low|sub, rest&^sub)
	}
}

// best returns the cheapest join tree for s under C_out, the sum of the
// estimated rows of its joins: dynamic programming over the subsets of s,
// memoized. A connected set splits only into connected sides that share a
// class; a cross product is taken only where s has no such split. The
// estimate of s is the lowest any of its splits gives, so it does not depend
// on the tree chosen.
func (g *joinGraph) best(s uint64) *subplan {
	if p, ok := g.memo[s]; ok {
		return p
	}
	p := &subplan{est: math.Inf(1), cost: math.Inf(1)}
	g.memo[s] = p
	if s&(s-1) == 0 {
		p.est, p.cost = g.est[bits.TrailingZeros64(s)], 0
		return p
	}
	conn := g.connected(s)
	g.splits(s, func(l, r uint64) {
		if conn && (!g.connected(l) || !g.connected(r)) {
			return
		}
		pl, pr := g.best(l), g.best(r)
		est, shared := g.estimate(l, r, pl.est, pr.est)
		if conn && !shared {
			return
		}
		p.est = math.Min(p.est, est)
		if c := pl.cost + pr.cost; c < p.cost {
			p.cost, p.left = c, l
		}
	})
	p.cost += p.est
	return p
}
