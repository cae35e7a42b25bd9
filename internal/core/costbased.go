package core

import (
	"math"
	"sort"
	"sync"

	"repro/internal/bloom"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/types"
)

// CostBased is the cost-based AIP strategy of §IV-B. Normal query
// processing proceeds with no incremental filter maintenance; whenever an
// input expression to a stateful operator completes, the AIP Manager is
// invoked. It evaluates the cost/benefit ratio of scanning the state within
// the operator, creating an AIP set, and adding the AIP set as a filter
// elsewhere in the query plan — re-using the optimizer's cardinality
// machinery exposed on each injection point (EstRows, DomainDistinct,
// ancestor chains) together with the engine's live cardinality counters.
//
// The decision procedure mirrors ESTIMATEBENEFIT (Fig. 4): candidate users
// are visited in inverse order of depth; once filtering a node is judged
// beneficial, its ancestors up to the common ancestor with the source are
// excluded to avoid double-counting; accepted filters make the revised
// cardinality estimates permanent. In the distributed setting a filter
// shipped to a remote site is additionally charged its transfer cost, and
// the transfer consumes (simulated) wall-clock time when the filter is
// actually injected.
type CostBased struct {
	opts Options

	mu      sync.Mutex
	points  []*exec.Point
	classes map[int]*classInfo

	// discount is the "permanent" revised-cardinality factor per point:
	// accepted filters scale the expected inflow of the target's
	// ancestors (Fig. 4 line 10).
	discount map[*exec.Point]float64

	// attached records the strength (|A|) of the filter currently injected
	// at a (point, class) pair, so only strictly stronger filters replace
	// it (§IV-B: intersect or replace).
	attached map[*exec.Point]map[int]*cbAttached

	// decisions counts create/skip outcomes for introspection and tests.
	created    int
	skipped    int
	shipFailed int // filter shipments abandoned after recovery was exhausted
}

type cbAttached struct {
	sum  filter.Summary
	size int // |A| of the injected set
}

// NewCostBased creates the controller.
func NewCostBased(opts Options) *CostBased {
	return &CostBased{
		opts:     opts,
		discount: map[*exec.Point]float64{},
		attached: map[*exec.Point]map[int]*cbAttached{},
	}
}

// RegisterPoint records an injection point.
func (c *CostBased) RegisterPoint(p *exec.Point) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.points = append(c.points, p)
}

// Begin precomputes candidate AIP-set producers and users, the runtime
// analog of AIPCANDIDATES (Fig. 3).
func (c *CostBased) Begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.classes = analyze(c.points, c.opts.fpr(), c.opts.Kind)
}

// Created returns how many AIP sets the manager decided to build.
func (c *CostBased) Created() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.created
}

// Skipped returns how many candidate AIP sets the manager rejected.
func (c *CostBased) Skipped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.skipped
}

// ShipFailed returns how many filter shipments were abandoned because the
// remote site stayed dead through the recovery policy.
func (c *CostBased) ShipFailed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shipFailed
}

// PointDone triggers the AIP Manager for a completed stateful input.
func (c *CostBased) PointDone(p *exec.Point) {
	if !p.Stateful || !p.StateComplete() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, col := range p.KeyCols {
		id := p.StateEqIDs[col]
		if id < 0 {
			continue
		}
		ci, ok := c.classes[id]
		if !ok {
			continue
		}
		c.considerSet(p, col, ci)
	}
}

// candidate is one prospective filter user with its computed benefit.
type candidate struct {
	point   *exec.Point
	col     int
	benefit float64
	sigma   float64
	link    int           // remote site to ship to, 0 when local
	anc     []*exec.Point // ancestors whose estimates this filter revises
}

// considerSet is ESTIMATEBENEFIT plus the injection step. Caller holds c.mu.
func (c *CostBased) considerSet(src *exec.Point, stateCol int, ci *classInfo) {
	cp := c.opts.Cost
	setSize := float64(src.StoredRows())
	createCost := cp.Fixed + setSize*cp.Build

	// Candidate users in inverse order of depth (deepest first), so a
	// filter applied low in the plan propagates its cardinality reduction
	// upward before shallower candidates are costed.
	cands := make([]classUse, 0, len(ci.consumers))
	seen := map[*exec.Point]bool{}
	for _, co := range ci.consumers {
		if co.point == src || co.point.Done() || seen[co.point] {
			continue
		}
		seen[co.point] = true
		cands = append(cands, co)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].point.Depth > cands[j].point.Depth })

	srcAnc := map[*exec.Point]bool{src: true}
	for _, a := range src.Ancestors {
		srcAnc[a] = true
	}

	used := map[*exec.Point]bool{}
	tentative := map[*exec.Point]float64{}
	var accepted []candidate
	savings := 0.0

	for _, co := range cands {
		n := co.point
		if used[n] {
			continue
		}
		// Existing stronger (smaller) filter already injected here?
		if prev := c.attached[n][ci.id]; prev != nil && prev.size <= int(setSize) {
			continue
		}
		sigma := 1.0
		domain := n.DomainDistinct[co.col]
		if domain <= 0 {
			domain = ci.domain
		}
		if domain > 0 {
			sigma = math.Min(1, setSize/domain)
		}
		// Expected tuples still to arrive at n, after previously accepted
		// filters' revisions (permanent discounts plus this invocation's
		// tentative ones).
		rem := n.EstRows*c.factor(n)*tentFactor(tentative, n) - float64(n.Received())
		if rem < 0 {
			rem = 0
		}
		// Pruned tuples save their processing here and at every ancestor;
		// every arriving tuple pays one extra probe.
		downstream := cp.Tuple * float64(1+len(n.Ancestors))
		benefit := rem*(1-sigma)*downstream - rem*cp.Probe
		if c.opts.Topology != nil && n.Site != src.Site {
			shipBits := bloom.BlockedBitsFor(int(setSize), c.opts.fpr())
			benefit -= float64(shipBits/8) * cp.NetworkByte
		}
		if benefit <= 0 {
			continue
		}
		savings += benefit
		ca := candidate{point: n, col: co.col, benefit: benefit, sigma: sigma, link: n.Site}
		// Propagate revised cardinality estimates to n's ancestors
		// (tentatively), and exclude ancestors up to the common ancestor
		// of n and src from further consideration.
		for _, a := range n.Ancestors {
			if srcAnc[a] {
				break
			}
			used[a] = true
			tentative[a] = tentFactor(tentative, a) * sigma
			ca.anc = append(ca.anc, a)
		}
		used[n] = true
		accepted = append(accepted, ca)
	}

	if savings <= createCost || len(accepted) == 0 {
		c.skipped++
		return
	}

	// Build the AIP set by scanning the operator's state — sound only if no
	// eviction emptied the state before the scan.
	sum := c.buildSummary(src, stateCol, ci)
	if !src.StateComplete() {
		c.skipped++
		return
	}
	c.created++
	c.opts.made(src.Op, sum, 0)

	// Inject, making each candidate's revised estimates permanent only once
	// its filter is actually in place: a filter whose shipment to a remote
	// site failed (recovery exhausted) is neither attached nor allowed to
	// discount the estimates other decisions will read.
	for _, a := range accepted {
		prev := func() filter.Summary {
			if prev := c.attached[a.point][ci.id]; prev != nil {
				return prev.sum
			}
			return nil
		}
		if !c.opts.attach(&c.mu, src.Site, classUse{a.point, a.col}, sum, prev) {
			c.shipFailed++
			continue
		}
		if c.attached[a.point] == nil {
			c.attached[a.point] = map[int]*cbAttached{}
		}
		c.attached[a.point][ci.id] = &cbAttached{sum: sum, size: int(setSize)}
		for _, p := range a.anc {
			c.discount[p] = c.factor(p) * a.sigma
		}
	}
}

func (c *CostBased) factor(p *exec.Point) float64 {
	if f, ok := c.discount[p]; ok {
		return f
	}
	return 1
}

func tentFactor(m map[*exec.Point]float64, p *exec.Point) float64 {
	if f, ok := m[p]; ok {
		return f
	}
	return 1
}

// buildSummary scans the completed state into an AIP set of the class, the
// one Feed-forward builds (classInfo.newSet): with SummaryBloom a filter in
// the class-wide geometry, so that sets over the class intersect, or for a
// bitmap class an exact bitmap over its domain, unless the state holds a
// value it cannot hold; with SummaryHashSet an exact set (the §IV-B note
// about reusing an operator's hash table directly).
func (c *CostBased) buildSummary(src *exec.Point, stateCol int, ci *classInfo) filter.Summary {
	fill := func(sum filter.Summary) bool {
		ok := true
		src.IterState(func(t types.Tuple) bool {
			ok = addToSet(sum, t[stateCol])
			return ok
		})
		return ok
	}
	sum := ci.newSet(c.opts.Kind, ci.bitmap)
	if !fill(sum) {
		sum = ci.newSet(c.opts.Kind, false)
		fill(sum)
	}
	return sum
}
