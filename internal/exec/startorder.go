package exec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/stats"
)

// Start order: a wired scan (Scan.Point) of a local, undelayed source holds
// its first chunk (or, for a sibling, a routing scan its first delivery)
// until some inputs have been published: Done, and the controller, if any,
// has attached what it built from them. Which ones, the
// run's wait graph over its points decides, built once by StartPlan. An edge
// p → q says p publishes only after q does:
//
//   - Data edges: an input publishes only after every input below it, since
//     its operator's output ends only after theirs.
//   - Filter edges (under an AIP controller): the scan feeding p waits for
//     every input whose largest source (Point.SourceRows) is at least
//     filterWaitRatio times smaller than p's, so their filters exist before
//     its first row.
//   - Sibling edges (every strategy): the scan feeding p waits for the other
//     input of p's join when its estimated output (Point.EstRows) is at least
//     siblingWaitRatio times smaller than p's. The sibling then completes
//     first, and the §VI-A short-circuit leaves p probe-only: it stores
//     nothing, and its scan probes the sibling's tables itself (HashJoin).
//     A routing scan reads and filters its chunks meanwhile, so the wait
//     costs no overlap (inputRoute.hold).
//
// Data edges go in first, then filter edges, then sibling edges in benefit
// order (the waiting input's estimated rows, largest first); an edge that
// would close a cycle is refused, and recorded with the cycle. A wait can
// only fail to end on a cycle of such edges, so the graph's acyclicity is the
// deadlock-freedom argument. Only scans wait, a wait ends on cancellation,
// and a scan that ends early (an abandoned source) still completes its
// input. An input with a delayed, fault-injected or remote source below it
// (SourceRows 0) never waits and is never waited on.

// filterWaitRatio is the size gap at which a scan waits for a filter's
// producer: the wait costs at most an eighth of the scan's volume, and a
// source of comparable size is not worth serializing behind for a filter that
// may prune little.
const filterWaitRatio = 8

// siblingWaitRatio is the gap in estimated output at which a scan waits for
// its join sibling: lower than filterWaitRatio, because the wait buys the
// scan's whole side, and wide enough to absorb estimates off by less.
const siblingWaitRatio = 4

// RankSources fills in Point.SourceRows for every operator input under op —
// the size of the largest source feeding it when every scan below is local
// and undelayed, else 0 (a modeled source's duration is the model's; nothing
// waits for it) — links the two inputs of every join as siblings, records
// each input's data edges and whether a scan feeds it, and returns the same
// size for op itself. A source's size is what its scan is expected to emit:
// the table's row count, cut to the optimizer's estimate for the input it is
// wired to (the pushed predicate): a selective scan of a big table is a cheap
// source of a strong filter.
func RankSources(op Op) int {
	n, _ := rankSources(op)
	return n
}

// rankSources is RankSources, also returning the inputs right below op.
func rankSources(op Op) (int, []*Point) {
	input := func(pt *Point, child Op) (int, []*Point) {
		n, below := rankSources(child)
		if pt == nil {
			return n, below
		}
		pt.SourceRows, pt.below = n, below
		return n, []*Point{pt}
	}
	switch v := op.(type) {
	case *Scan:
		if v.Point != nil {
			v.Point.scanned = true
		}
		if v.modeled() || v.Site != 0 {
			return 0, nil
		}
		n := len(v.Rows)
		if v.Point != nil && v.Point.EstRows > 0 {
			n = min(n, int(v.Point.EstRows))
		}
		return max(n, 1), nil
	case *Filter:
		return rankSources(v.Child)
	case *Project:
		return rankSources(v.Child)
	case *HashAgg:
		return input(v.Point, v.Child)
	case *Distinct:
		return input(v.Point, v.Child)
	case *HashJoin:
		l, lb := input(v.LPoint, v.Left)
		r, rb := input(v.RPoint, v.Right)
		if v.LPoint != nil && v.RPoint != nil {
			v.LPoint.sibling, v.RPoint.sibling = v.RPoint, v.LPoint
		}
		if l > 0 && r > 0 {
			return max(l, r), append(lb, rb...)
		}
		return 0, append(lb, rb...)
	case *Ship:
		_, below := rankSources(v.Child)
		if v.Point == nil {
			return 0, below
		}
		v.Point.below = below
		return 0, []*Point{v.Point}
	}
	return 0, nil
}

// WaitEdge is one edge of a run's wait graph: From publishes only after To
// has. Kind is "data", "filter" or "sibling"; Why gives the ranks that chose
// a wait, and for a refused one the cycle it would have closed.
type WaitEdge struct {
	From, To *Point
	Kind     string
	Why      string
	Refused  bool
}

func (e WaitEdge) String() string {
	if e.Refused {
		return fmt.Sprintf("refused:%s→%s(%s)", e.Kind, e.To.Name, e.Why)
	}
	return fmt.Sprintf("%s→%s(%s)", e.Kind, e.To.Name, e.Why)
}

// waitGraph is a run's start order (see above): every edge considered, and
// the accepted ones by From.
type waitGraph struct {
	edges []WaitEdge
	after map[*Point][]*Point
}

// newWaitGraph builds the wait graph of the points registered on c, ranked
// and linked by RankSources.
func newWaitGraph(c *Context) *waitGraph {
	g := &waitGraph{after: map[*Point][]*Point{}}
	points := c.Points()
	var wired []*Point
	for _, p := range points {
		for _, d := range p.below {
			g.add(p, d, "data", "")
		}
		if p.scanned && p.SourceRows > 0 {
			wired = append(wired, p)
		}
	}
	for _, p := range wired {
		for _, q := range points {
			if c.Ctl != nil && q.SourceRows > 0 && q.SourceRows*filterWaitRatio <= p.SourceRows {
				g.add(p, q, "filter", fmt.Sprintf("src %d≤%d/%d", q.SourceRows, p.SourceRows, filterWaitRatio))
			}
		}
	}
	est := func(p *Point) float64 {
		if p.EstRows > 0 {
			return p.EstRows
		}
		return float64(p.SourceRows)
	}
	sib := slices.DeleteFunc(wired, func(p *Point) bool {
		s := p.sibling
		return s == nil || s.SourceRows == 0 || est(s)*siblingWaitRatio > est(p) || slices.Contains(g.after[p], s)
	})
	slices.SortStableFunc(sib, func(a, b *Point) int { // larger estimate first
		return cmp.Or(cmp.Compare(est(b), est(a)), cmp.Compare(a.ID, b.ID))
	})
	for _, p := range sib {
		g.add(p, p.sibling, "sibling", fmt.Sprintf("est %.0f≤%.0f/%d", est(p.sibling), est(p), siblingWaitRatio))
	}
	return g
}

// add records the edge p → q, refused when q already publishes only after p:
// it would close that cycle.
func (g *waitGraph) add(p, q *Point, kind, why string) {
	e := WaitEdge{From: p, To: q, Kind: kind, Why: why}
	if cyc := g.path(q, p, map[*Point]bool{}); cyc != nil {
		e.Why, e.Refused = why+"; cycle "+p.Name+"→"+strings.Join(cyc, "→"), true
	} else {
		g.after[p] = append(g.after[p], q)
	}
	g.edges = append(g.edges, e)
}

// path returns the names along a path of accepted edges from a to b, both
// included, or nil.
func (g *waitGraph) path(a, b *Point, seen map[*Point]bool) []string {
	if a == b {
		return []string{a.Name}
	}
	if seen[a] {
		return nil
	}
	seen[a] = true
	for _, x := range g.after[a] {
		if p := g.path(x, b, seen); p != nil {
			return append([]string{a.Name}, p...)
		}
	}
	return nil
}

// WaitGraph returns the run's wait graph (built by StartPlan): every data
// edge, every accepted wait, and every refused wait. Nil before the plan
// started.
func (c *Context) WaitGraph() (data, waits, refused []WaitEdge) {
	if c.waits == nil {
		return nil, nil, nil
	}
	for _, e := range c.waits.edges {
		switch {
		case e.Refused:
			refused = append(refused, e)
		case e.Kind == "data":
			data = append(data, e)
		default:
			waits = append(waits, e)
		}
	}
	return data, waits, refused
}

// awaitStart blocks the wired scan feeding pt until every input its accepted
// waits name has been published, and records pt's edges and the wait on the
// scan's op; false when the query was cancelled first. A routing scan
// (route) does not block for its sibling wait: it returns the sibling, for
// its route to hold deliveries until it has published (inputRoute.hold), so
// the scan filters its chunks meanwhile.
func (c *Context) awaitStart(pt *Point, op *stats.OpStats, route bool) (ok bool, sibling *Point) {
	var ws []*Point
	_, waits, refused := c.WaitGraph()
	for _, e := range append(waits, refused...) {
		if e.From != pt {
			continue
		}
		op.Waits = append(op.Waits, e.String())
		if !e.Refused {
			ws = append(ws, e.To)
		}
		if !e.Refused && route && e.Kind == "sibling" {
			sibling = e.To
		}
	}
	if len(ws) == 0 {
		return true, nil
	}
	start := time.Now()
	for _, q := range ws {
		if q == sibling {
			continue
		}
		select {
		case <-q.published:
		case <-c.cancel:
			return false, nil
		}
	}
	op.Waited = time.Since(start)
	op.WaitedFor = make([]string, len(ws))
	for i, q := range ws {
		op.WaitedFor[i] = q.Op.Name // set before q's operator started its inputs, so before publication
	}
	return true, sibling
}
