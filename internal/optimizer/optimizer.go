// Package optimizer converts bound query blocks into physical push plans.
//
// Following Tukwila (§V-A), it emphasizes maximally pipelined bushy plans
// built from pipelined hash joins and hash aggregation, and its cost
// modeler needs no histograms: estimates come from cardinalities and the
// catalog's distinct counts, propagated assuming uniform, uncorrelated
// attributes. Each block's join order is a dynamic program over its join
// graph (joinorder.go): the relations are the nodes and the block-local
// equivalence classes the edges, and it picks the bushy tree of least C_out,
// the sum of the estimated rows of its joins, taking a cross product only
// where a set of relations has no connected split. A join keys on every
// class its sides share, and its estimate caps the independence assumption
// for a composite key at each side's rows.
//
// The optimizer also attaches the metadata the AIP runtime needs to every
// injection point: attribute equivalence classes, cardinality estimates,
// per-attribute domain sizes, plan depth, and ancestor chains — the
// services ESTIMATEBENEFIT (Fig. 4 of the paper) re-invokes at runtime.
//
// Projection pushdown: every join emits only the columns still read above
// it (exec.HashJoin.Out) — by a non-equi conjunct not yet applied, by its
// own residual, by the grouping expressions and aggregate arguments, or by
// the block's output when it does not aggregate — plus one member of each
// equivalence class that is still open: some member lies outside the
// join's inputs, in a relation of the block not yet joined (a later join
// keys on it) or in another block (an injection point above the join
// exposes the attribute a set could still prune through). The members a
// join equated carry one value, so one serves. Once the join brings in a
// class's last member, every producer of the class lies below it and every
// tuple above already passed each producer's join, so no set over the class
// can prune there: its columns go unless something reads them.
package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/network"
	"repro/internal/plan"
)

// Config carries the environmental knobs of an optimization run.
type Config struct {
	// Topology models the network for distributed relations; nil means
	// everything is local.
	Topology *network.Topology
	// Delay is applied to relations tagged Delayed in the block.
	Delay *exec.DelayConfig
}

// Result is a physical plan plus the AIP metadata the runtime consumes.
type Result struct {
	Root   exec.Op
	Points []*exec.Point
	// EstRows is the optimizer's estimate for the final result size.
	EstRows float64
}

// Build compiles a block to a physical plan.
func Build(cfg Config, b *plan.Block) (*Result, error) {
	o := newBuilder(cfg, b)
	comp, err := o.buildBlock(b, "q")
	if err != nil {
		return nil, err
	}
	return &Result{Root: comp.op, Points: o.points, EstRows: comp.est}, nil
}

// newBuilder returns a builder for the query whose root block is b.
func newBuilder(cfg Config, b *plan.Block) *builder {
	o := &builder{cfg: cfg, classSize: map[int]int{}}
	o.countClasses(b)
	return o
}

type builder struct {
	cfg    Config
	points []*exec.Point
	nextID int
	// classSize counts the columns of each equivalence class across every
	// block of the query; projection pushdown keeps a class open while
	// fewer than that many lie inside the join (pruneJoin).
	classSize map[int]int
	ordered   func(*joinGraph) // when set, sees each block's join graph before its tree is built
}

// countClasses fills classSize from b and its nested blocks.
func (o *builder) countClasses(b *plan.Block) {
	for _, id := range b.EqIDs {
		if id >= 0 {
			o.classSize[id]++
		}
	}
	for _, r := range b.Rels {
		if r.Sub != nil {
			o.countClasses(r.Sub)
		}
	}
}

// component is one connected piece of the join forest during ordering.
type component struct {
	op       exec.Op
	rels     uint64          // the block's relations joined in (joinGraph sets)
	equated  uint64          // the joinGraph classes a join in this subtree keyed on
	colmap   map[int]int     // global col id -> position in op schema
	est      float64         // estimated output rows
	distinct map[int]float64 // global col id -> distinct estimate
	points   []*exec.Point   // injection points inside this subtree
	tables   []string        // base tables feeding this subtree

	// domain maps a global col id to the value range of the integer-backed
	// base column it carries, for columns of multi-member equivalence
	// classes (catalog.Table.IntRange); groupDomain holds the group keys'
	// once aggregation has replaced the schema. The AIP controllers read
	// them from the points (exec.Point.StateDomains).
	domain      map[int]exec.IntDomain
	groupDomain []exec.IntDomain

	// scan is the base-table scan whose rows reach this component's output
	// unchanged in shape (nothing but Filters above it), or nil. The operator
	// that consumes the component hands such a scan its injection point, so
	// AIP filters prune at the source (exec.Scan.Point).
	scan *exec.Scan
}

func (c *component) mappingFor(cols []int) (map[int]int, bool) {
	m := make(map[int]int, len(cols))
	for _, g := range cols {
		p, ok := c.colmap[g]
		if !ok {
			return nil, false
		}
		m[g] = p
	}
	return m, true
}

// newPoint allocates an injection point with the component-derived
// metadata. The point's ancestors are filled in as joins stack up.
func (o *builder) newPoint(name string, b *plan.Block, comp *component, stateful bool, site int) *exec.Point {
	sch := comp.op.Schema()
	eq := make([]int, sch.Len())
	dom := make([]float64, sch.Len())
	inv := make([]int, sch.Len())
	for i := range inv {
		inv[i] = -1
	}
	for g, p := range comp.colmap {
		inv[p] = g
	}
	var doms []exec.IntDomain
	for p := range eq {
		eq[p] = -1
		if g := inv[p]; g >= 0 {
			eq[p] = b.EqIDs[g]
			dom[p] = comp.distinct[g]
			if d, ok := comp.domain[g]; ok {
				if doms == nil {
					doms = make([]exec.IntDomain, sch.Len())
				}
				doms[p] = d
			}
		}
	}
	pt := &exec.Point{
		Name:           name,
		EqIDs:          eq,
		StateEqIDs:     eq,
		Schema:         sch,
		Bank:           exec.NewFilterBank(),
		Stateful:       stateful,
		Site:           site,
		Tables:         append([]string(nil), comp.tables...),
		EstRows:        comp.est,
		DomainDistinct: dom,
		StateDomains:   doms,
	}
	o.points = append(o.points, pt)
	return pt
}

// adopt records that parent is now an ancestor of every point in comp.
func adopt(comp *component, parent *exec.Point) {
	for _, p := range comp.points {
		p.Ancestors = append(p.Ancestors, parent)
	}
}

// finalizeDepths sets Depth = number of ancestors for every point.
func (o *builder) finalizeDepths() {
	for _, p := range o.points {
		p.Depth = len(p.Ancestors)
	}
}

// ---------------------------------------------------------------------------
// Block compilation.

func (o *builder) buildBlock(b *plan.Block, prefix string) (*component, error) {
	used := make([]bool, len(b.Conjuncts))

	// 1. Build one component per relation, pushing single-relation
	// predicates down to it.
	comps := make([]*component, 0, len(b.Rels))
	for ri, rel := range b.Rels {
		comp, err := o.buildRel(b, ri, rel, used, fmt.Sprintf("%s.%s", prefix, rel.Alias))
		if err != nil {
			return nil, err
		}
		comps = append(comps, comp)
	}

	// 2. Join order: the bushy tree of least C_out over the block's join
	// graph.
	g, err := newJoinGraph(b, comps)
	if err != nil {
		return nil, err
	}
	if o.ordered != nil {
		o.ordered(g)
	}
	comp, err := o.buildTree(b, g, comps, g.all(), used, prefix)
	if err != nil {
		return nil, err
	}

	// 3. Any conjunct not yet applied (e.g. a single-component residual
	// discovered late) runs as a filter.
	for ci := range b.Conjuncts {
		if used[ci] {
			continue
		}
		mapped, ok := remapGlobal(b.Conjuncts[ci].E, comp)
		if !ok {
			return nil, fmt.Errorf("optimizer: conjunct %s references unavailable columns", b.Conjuncts[ci].E)
		}
		sel := predSelectivity(b, b.Conjuncts[ci].E)
		comp.op = &exec.Filter{Child: comp.op, Pred: mapped, Name: prefix + ".resid"}
		comp.est *= sel
		used[ci] = true
	}

	// 4. Aggregation.
	if len(b.GroupBy) > 0 || len(b.Aggs) > 0 {
		if err := o.buildAgg(b, comp, prefix); err != nil {
			return nil, err
		}
	}

	// 5. Final projection to the block's output schema.
	if err := o.buildOutput(b, comp, prefix); err != nil {
		return nil, err
	}

	// 6. DISTINCT.
	if b.Distinct {
		pt := o.newPointForOutput(b, comp, prefix+".distinct")
		d := &exec.Distinct{Name: prefix, Child: comp.op, Point: pt}
		adopt(comp, pt)
		comp.points = append(comp.points, pt)
		comp.op = d
		comp.est = math.Min(comp.est, comp.est*0.9)
	}
	o.finalizeDepths()
	return comp, nil
}

// buildRel compiles one relation reference and pushes its local predicates.
func (o *builder) buildRel(b *plan.Block, ri int, rel *plan.Rel, used []bool, name string) (*component, error) {
	comp := &component{
		rels:     1 << ri,
		colmap:   make(map[int]int),
		distinct: make(map[int]float64),
	}
	for i := 0; i < rel.Schema.Len(); i++ {
		comp.colmap[rel.Offset+i] = i
	}

	if rel.IsBase() {
		var delay *exec.DelayConfig
		if rel.Delayed && o.cfg.Delay != nil {
			delay = o.cfg.Delay
		}
		comp.scan = &exec.Scan{
			Name:  name,
			Rows:  rel.Table.Rows,
			Sch:   rel.Schema,
			Delay: delay,
			Table: rel.Table.Name,
			Site:  rel.Site,
			Vecs:  rel.Table,
		}
		comp.op = comp.scan
		comp.tables = []string{rel.Table.Name}
		comp.est = float64(rel.Table.NumRows())
		for i, c := range rel.Schema.Cols {
			g := rel.Offset + i
			comp.distinct[g] = float64(rel.Table.Distinct(c.Name))
			if o.classSize[b.EqIDs[g]] < 2 {
				continue
			}
			if lo, hi, ok := rel.Table.IntRange(i); ok {
				comp.setDomain(g, exec.IntDomain{Lo: lo, Hi: hi, Known: true})
			}
		}
	} else {
		sub, err := o.buildBlock(rel.Sub, name)
		if err != nil {
			return nil, err
		}
		// Re-key the sub-block's output columns into this block's ids.
		comp.op = sub.op
		comp.est = sub.est
		comp.points = sub.points
		comp.tables = sub.tables
		for i := 0; i < rel.Schema.Len(); i++ {
			comp.distinct[rel.Offset+i] = subOutputDistinct(rel.Sub, i, sub)
			if d := outputDomain(rel.Sub, i, sub); d.Known {
				comp.setDomain(rel.Offset+i, d)
			}
		}
	}

	// Push single-relation conjuncts.
	var preds []expr.Expr
	for ci, c := range b.Conjuncts {
		if used[ci] || len(c.Rels) != 1 || c.Rels[0] != ri {
			continue
		}
		mapped, ok := remapGlobal(c.E, comp)
		if !ok {
			continue
		}
		preds = append(preds, mapped)
		comp.est *= predSelectivity(b, c.E)
		used[ci] = true
	}
	if len(preds) > 0 {
		comp.op = &exec.Filter{Child: comp.op, Pred: expr.And(preds...), Name: name}
	}
	clampDistinct(comp)

	// Remote relation: evaluate local predicates at the remote site, then
	// ship across the link; the ship point lets AIP filters prune at the
	// source.
	if rel.Site != 0 && o.cfg.Topology != nil {
		link := o.cfg.Topology.LinkBetween(rel.Site, 0)
		pt := o.newPoint(name+".ship", b, comp, false, rel.Site)
		ship := &exec.Ship{Name: name, Child: comp.op, Link: link, Point: pt, Site: rel.Site}
		if len(comp.tables) > 0 {
			ship.Table = comp.tables[0]
		}
		comp.op = ship
		comp.points = append(comp.points, pt)
		comp.scan = nil // the ship point prunes at the remote site
	}
	return comp, nil
}

// subOutputDistinct estimates distinct values of a sub-block output column.
func subOutputDistinct(sub *plan.Block, outCol int, comp *component) float64 {
	if outCol < len(sub.Output) {
		if cr, ok := sub.Output[outCol].E.(*expr.ColRef); ok {
			if len(sub.Aggs) == 0 && len(sub.GroupBy) == 0 {
				if d, ok2 := comp.distinct[cr.Idx]; ok2 {
					return math.Min(d, comp.est)
				}
			}
		}
	}
	return comp.est
}

// setDomain records global column g's integer domain.
func (c *component) setDomain(g int, d exec.IntDomain) {
	if c.domain == nil {
		c.domain = map[int]exec.IntDomain{}
	}
	c.domain[g] = d
}

// outputDomain returns the integer domain output column outCol of block b
// carries: a bare reference to a column (a group key, once aggregated) with
// a known domain in comp, b's compiled component.
func outputDomain(b *plan.Block, outCol int, comp *component) exec.IntDomain {
	if outCol >= len(b.Output) {
		return exec.IntDomain{}
	}
	cr, ok := b.Output[outCol].E.(*expr.ColRef)
	if !ok {
		return exec.IntDomain{}
	}
	if len(b.Aggs) > 0 || len(b.GroupBy) > 0 {
		if cr.Idx < len(comp.groupDomain) {
			return comp.groupDomain[cr.Idx]
		}
		return exec.IntDomain{}
	}
	return comp.domain[cr.Idx]
}

// buildTree builds the join tree g.best chose for the relation set s, left
// side first, so joins are numbered bottom-up.
func (o *builder) buildTree(b *plan.Block, g *joinGraph, comps []*component, s uint64, used []bool, prefix string) (*component, error) {
	p := g.best(s)
	if p.left == 0 {
		return comps[bits.TrailingZeros64(s)], nil
	}
	l, err := o.buildTree(b, g, comps, p.left, used, prefix)
	if err != nil {
		return nil, err
	}
	r, err := o.buildTree(b, g, comps, s&^p.left, used, prefix)
	if err != nil {
		return nil, err
	}
	o.nextID++
	return o.buildJoin(b, g, l, r, p.est, used, fmt.Sprintf("%s.j%d", prefix, o.nextID-1))
}

// buildJoin combines two components with a pipelined hash join estimated
// at est rows. Its key equates, for every class both sides hold, each member
// a side has not already equated: one member of a side that keyed on the
// class before, every member of one that did not (a relation holding two
// members of the class).
func (o *builder) buildJoin(b *plan.Block, g *joinGraph, l, r *component, est float64, used []bool, name string) (*component, error) {
	merged := &component{
		rels:     l.rels | r.rels,
		equated:  l.equated | r.equated,
		colmap:   map[int]int{},
		distinct: map[int]float64{},
	}
	var lkeys, rkeys []int
	for ci := range g.classes {
		c := &g.classes[ci]
		if c.rels&l.rels == 0 || c.rels&r.rels == 0 {
			continue
		}
		lm, rm := l.members(c, ci), r.members(c, ci)
		if len(lm) == 0 || len(rm) == 0 {
			return nil, fmt.Errorf("optimizer: join %s lost a member of a class it keys on", name)
		}
		for _, rg := range rm {
			lkeys, rkeys = append(lkeys, l.colmap[lm[0]]), append(rkeys, r.colmap[rg])
		}
		for _, lg := range lm[1:] {
			lkeys, rkeys = append(lkeys, l.colmap[lg]), append(rkeys, r.colmap[rm[0]])
		}
		for _, cj := range c.conj {
			if relSet(b.Conjuncts[cj].Rels)&^merged.rels == 0 {
				used[cj] = true
			}
		}
		merged.equated |= 1 << ci
	}
	// Concatenated positions first; pruning renumbers them below.
	nl := l.op.Schema().Len()
	for g, p := range l.colmap {
		merged.colmap[g] = p
	}
	for g, p := range r.colmap {
		merged.colmap[g] = p + nl
	}
	merged.est = est
	merged.tables = append(append([]string(nil), l.tables...), r.tables...)

	// Residual: remaining conjuncts fully contained in the merged set.
	var residuals []expr.Expr
	for ci, c := range b.Conjuncts {
		if used[ci] || relSet(c.Rels)&^merged.rels != 0 {
			continue
		}
		if _, ok := merged.mappingFor(expr.CollectCols(c.E, nil)); !ok {
			continue
		}
		residuals = append(residuals, c.E)
		used[ci] = true
	}

	out := o.pruneJoin(b, g, merged, l, r, used, residuals)
	for i, c := range residuals {
		mapped, ok := remapGlobal(c, merged)
		if !ok {
			return nil, fmt.Errorf("optimizer: join residual %s references pruned columns", c)
		}
		residuals[i] = mapped
	}
	j := exec.NewHashJoin(name, l.op, r.op, lkeys, rkeys, out, expr.And(residuals...))
	j.LPoint = o.newPoint(name+".left", b, l, true, 0)
	j.LPoint.KeyCols = append([]int(nil), lkeys...)
	j.RPoint = o.newPoint(name+".right", b, r, true, 0)
	j.RPoint.KeyCols = append([]int(nil), rkeys...)
	if l.scan != nil {
		l.scan.Point = j.LPoint
	}
	if r.scan != nil {
		r.scan.Point = j.RPoint
	}
	adopt(l, j.LPoint)
	adopt(r, j.RPoint)
	merged.points = append(merged.points, l.points...)
	merged.points = append(merged.points, r.points...)
	merged.points = append(merged.points, j.LPoint, j.RPoint)
	merged.op = j
	clampDistinct(merged)
	return merged, nil
}

// pruneJoin decides the columns a join emits — those a later non-equi
// conjunct, the join's own residuals (global-bound), the grouping, the
// aggregates or the block's output read, and one member of each open
// equivalence class — returns them as the join's Out list in concatenated
// order, and renumbers merged.colmap to the emitted positions
// (merged.distinct keeps only them). A class is open while a block-local
// class has a member in a relation not yet joined (a later join keys on
// it), or a query-wide class has a member outside merged, here or in
// another block (a set over it can still prune above). A block-local class
// no join below has keyed on keeps every member: the later join equates
// them.
func (o *builder) pruneJoin(b *plan.Block, g *joinGraph, merged, l, r *component, used []bool, residuals []expr.Expr) []int {
	var read []int
	for ci, c := range b.Conjuncts {
		if !used[ci] && !c.IsEqui {
			read = expr.CollectCols(c.E, read)
		}
	}
	for _, e := range residuals {
		read = expr.CollectCols(e, read)
	}
	if len(b.GroupBy) > 0 || len(b.Aggs) > 0 {
		for _, e := range b.GroupBy {
			read = expr.CollectCols(e, read)
		}
		for _, a := range b.Aggs {
			if a.Arg != nil {
				read = expr.CollectCols(a.Arg, read)
			}
		}
	} else {
		for _, oc := range b.Output {
			read = expr.CollectCols(oc.E, read)
		}
	}
	keep := make(map[int]bool, len(read))
	for _, g := range read {
		keep[g] = true
	}
	width := len(merged.colmap)
	global := make([]int, width) // concatenated position -> global id
	for g, p := range merged.colmap {
		global[p] = g
	}
	// An open class keeps its present members if no join below equated
	// them, else one, unless a kept column already carries it.
	carried := func(c *joinClass) bool {
		return slices.ContainsFunc(c.members, func(m int) bool { _, ok := merged.colmap[m]; return ok && keep[m] })
	}
	for ci := range g.classes {
		if c := &g.classes[ci]; c.rels&^merged.rels != 0 && (merged.equated&(1<<ci) == 0 || !carried(c)) {
			for _, m := range merged.members(c, ci) {
				keep[m] = true
			}
		}
	}
	inside := map[int]int{} // query-wide class id -> members among merged's relations
	for ri := range len(b.Rels) {
		if merged.rels&(1<<ri) != 0 {
			rel := b.Rels[ri]
			for g := rel.Offset; g < rel.Offset+rel.Schema.Len(); g++ {
				inside[b.EqIDs[g]]++
			}
		}
	}
	emitted := map[int]bool{} // query-wide classes a kept column carries
	for _, g := range global {
		if keep[g] {
			emitted[b.EqIDs[g]] = true
		}
	}
	for _, g := range global {
		if id := b.EqIDs[g]; id >= 0 && !emitted[id] && inside[id] < o.classSize[id] {
			keep[g], emitted[id] = true, true
		}
	}
	var out []int
	for p, g := range global {
		if keep[g] {
			merged.colmap[g] = len(out)
			out = append(out, p)
			continue
		}
		delete(merged.colmap, g)
	}
	for _, side := range []*component{l, r} {
		for g, d := range side.distinct {
			if _, ok := merged.colmap[g]; ok {
				merged.distinct[g] = d
			}
		}
		for g, d := range side.domain {
			if _, ok := merged.colmap[g]; ok {
				merged.setDomain(g, d)
			}
		}
	}
	return out
}

// members returns the columns of class c (g.classes[ci]) that comp emits,
// ascending; only the first when a join below already keyed on c.
func (comp *component) members(c *joinClass, ci int) []int {
	var out []int
	for _, m := range c.members {
		if _, ok := comp.colmap[m]; ok {
			if out = append(out, m); comp.equated&(1<<ci) != 0 {
				break
			}
		}
	}
	return out
}

// buildAgg lowers grouping and aggregation, leaving comp holding the
// post-aggregation schema.
func (o *builder) buildAgg(b *plan.Block, comp *component, prefix string) error {
	groupBy := make([]expr.Expr, len(b.GroupBy))
	for i, g := range b.GroupBy {
		mapped, ok := remapGlobal(g, comp)
		if !ok {
			return fmt.Errorf("optimizer: group-by expression %s references unavailable columns", g)
		}
		groupBy[i] = mapped
	}
	aggs := make([]plan.AggSpec, len(b.Aggs))
	for i, a := range b.Aggs {
		na := a
		if a.Arg != nil {
			mapped, ok := remapGlobal(a.Arg, comp)
			if !ok {
				return fmt.Errorf("optimizer: aggregate argument %s references unavailable columns", a.Arg)
			}
			na.Arg = mapped
		}
		aggs[i] = na
	}

	pt := o.newPoint(prefix+".agg", b, comp, true, 0)
	// Group count estimate: product of group-by distincts, capped by input.
	groups := 1.0
	stateEq := make([]int, len(groupBy))
	groupSrcCols := map[int]bool{}
	var groupDom []exec.IntDomain
	for i, g := range b.GroupBy {
		stateEq[i] = -1
		if cr, ok := g.(*expr.ColRef); ok {
			stateEq[i] = b.EqIDs[cr.Idx]
			if d, ok2 := comp.domain[cr.Idx]; ok2 {
				if groupDom == nil {
					groupDom = make([]exec.IntDomain, len(groupBy))
				}
				groupDom[i] = d
			}
			if p, ok2 := comp.colmap[cr.Idx]; ok2 {
				groupSrcCols[p] = true
			}
			if d, ok2 := comp.distinct[cr.Idx]; ok2 {
				groups *= d
			} else {
				groups *= 100
			}
		} else {
			groups *= 100
		}
	}
	groups = math.Min(groups, comp.est)
	if groups < 1 {
		groups = 1
	}
	pt.StateEqIDs = stateEq
	pt.StateDomains = groupDom
	for i := range stateEq {
		pt.KeyCols = append(pt.KeyCols, i)
	}
	// Correctness: only group-by source columns may be probed at an
	// aggregation input. Pruning an arriving tuple on any other column
	// would silently change the aggregate of a group that survives, so
	// non-group columns are removed from the probe-eligible set (the
	// paper's filters are likewise keyed on the grouping attribute, e.g.
	// PARTKEY in Examples 3.1/3.2).
	for p := range pt.EqIDs {
		if !groupSrcCols[p] {
			pt.EqIDs[p] = -1
		}
	}

	agg := exec.NewHashAgg(prefix, comp.op, groupBy, aggs, b.PostAggSchema())
	agg.Point = pt
	if comp.scan != nil {
		comp.scan.Point = pt
		comp.scan = nil
	}
	adopt(comp, pt)
	comp.points = append(comp.points, pt)
	comp.op = agg
	comp.est = groups

	// The component now produces the post-agg schema: rewire colmap so the
	// output step can bind against it (post-agg positions are "virtual"
	// globals; buildOutput binds positionally instead).
	comp.colmap = nil
	comp.distinct = nil
	comp.domain = nil
	comp.groupDomain = groupDom
	return nil
}

// buildOutput projects the block's output expressions.
func (o *builder) buildOutput(b *plan.Block, comp *component, prefix string) error {
	exprs := make([]expr.Expr, len(b.Output))
	aggregated := len(b.GroupBy) > 0 || len(b.Aggs) > 0
	for i, out := range b.Output {
		if aggregated {
			// Already bound against the post-agg schema, which is exactly
			// comp.op's schema.
			exprs[i] = out.E
			continue
		}
		mapped, ok := remapGlobal(out.E, comp)
		if !ok {
			return fmt.Errorf("optimizer: output %s references unavailable columns", out.E)
		}
		exprs[i] = mapped
	}
	outSchema := b.OutputSchema()

	// Identity projection elision: skip when outputs are exactly the
	// child's columns in order.
	if !aggregated || len(exprs) != comp.op.Schema().Len() {
		comp.op = &exec.Project{Child: comp.op, Exprs: exprs, Sch: outSchema, Name: prefix}
	} else {
		identity := true
		for i, e := range exprs {
			cr, ok := e.(*expr.ColRef)
			if !ok || cr.Idx != i {
				identity = false
				break
			}
		}
		if !identity {
			comp.op = &exec.Project{Child: comp.op, Exprs: exprs, Sch: outSchema, Name: prefix}
		}
	}
	return nil
}

// newPointForOutput builds a point whose schema is the block's output; the
// equivalence ids flow through output column provenance.
func (o *builder) newPointForOutput(b *plan.Block, comp *component, name string) *exec.Point {
	outEq := blockOutputEq(b)
	pt := &exec.Point{
		Name:           name,
		EqIDs:          outEq,
		StateEqIDs:     outEq,
		Schema:         comp.op.Schema(),
		Bank:           exec.NewFilterBank(),
		Stateful:       true,
		Tables:         append([]string(nil), comp.tables...),
		EstRows:        comp.est,
		DomainDistinct: make([]float64, len(outEq)),
	}
	for i := range outEq {
		pt.KeyCols = append(pt.KeyCols, i)
		if d := outputDomain(b, i, comp); d.Known {
			if pt.StateDomains == nil {
				pt.StateDomains = make([]exec.IntDomain, len(outEq))
			}
			pt.StateDomains[i] = d
		}
	}
	o.points = append(o.points, pt)
	return pt
}

// blockOutputEq computes the equivalence class of each output column (-1
// for computed columns), mirroring the binder's propagation rule.
func blockOutputEq(b *plan.Block) []int {
	out := make([]int, len(b.Output))
	for i, o := range b.Output {
		out[i] = -1
		if len(b.Aggs) > 0 || len(b.GroupBy) > 0 {
			if cr, ok := o.E.(*expr.ColRef); ok && cr.Idx < len(b.GroupBy) {
				if src, ok2 := b.GroupBy[cr.Idx].(*expr.ColRef); ok2 {
					out[i] = b.EqIDs[src.Idx]
				}
			}
			continue
		}
		if cr, ok := o.E.(*expr.ColRef); ok {
			out[i] = b.EqIDs[cr.Idx]
		}
	}
	return out
}

// remapGlobal rewrites a global-bound expression into component positions.
func remapGlobal(e expr.Expr, comp *component) (expr.Expr, bool) {
	if comp.colmap == nil {
		return nil, false
	}
	cols := expr.CollectCols(e, nil)
	m, ok := comp.mappingFor(cols)
	if !ok {
		return nil, false
	}
	return expr.Remap(e, m)
}

// clampDistinct caps per-column distinct estimates at the component's
// cardinality estimate.
func clampDistinct(c *component) {
	for g, d := range c.distinct {
		if d > c.est {
			c.distinct[g] = c.est
		}
		if c.distinct[g] < 1 {
			c.distinct[g] = 1
		}
	}
}

// predSelectivity is the histogram-free selectivity heuristic of §V-A for
// a conjunct of b: col = const keeps 1/V(col) where the catalog records V
// for a base column, else 0.05.
func predSelectivity(b *plan.Block, e expr.Expr) float64 {
	switch v := e.(type) {
	case *expr.Binary:
		switch v.Op {
		case expr.OpEq:
			if isConstComparison(v) {
				col, ok := v.L.(*expr.ColRef)
				if !ok {
					col, ok = v.R.(*expr.ColRef)
				}
				if ok {
					if rel := b.Rels[b.RelOf(col.Idx)]; rel.IsBase() {
						if d, ok := rel.Table.KnownDistinct(rel.Schema.Cols[col.Idx-rel.Offset].Name); ok && d > 0 {
							return 1 / float64(d)
						}
					}
				}
				return 0.05
			}
			return 0.1
		case expr.OpNe:
			return 0.9
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return 0.33
		case expr.OpAnd:
			return predSelectivity(b, v.L) * predSelectivity(b, v.R)
		case expr.OpOr:
			s := predSelectivity(b, v.L) + predSelectivity(b, v.R)
			return math.Min(s, 1)
		}
	case *expr.Like:
		if v.Negate {
			return 0.9
		}
		return 0.1
	case *expr.Not:
		return 1 - predSelectivity(b, v.E)
	}
	return 0.25
}

func isConstComparison(b *expr.Binary) bool {
	return isConstLike(b.L) != isConstLike(b.R) // exactly one side constant
}

// isConstLike treats prepared-statement parameters like the constants they
// become at execute time, so parameterized plans get the same selectivity
// estimates as their literal-constant equivalents.
func isConstLike(e expr.Expr) bool {
	switch e.(type) {
	case *expr.Const, *expr.Param:
		return true
	}
	return false
}
