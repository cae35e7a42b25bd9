// Package core implements Adaptive Information Passing (AIP), the paper's
// primary contribution: runtime decision making that reuses the
// intermediate state of completed subexpressions to prune other,
// still-running subexpressions of the same query plan — across blocking
// operators and between correlated query blocks.
//
// Two strategies are provided, matching §IV of the paper:
//
//   - FeedForward (§IV-A): optimistically builds a working AIP set for
//     every attribute with an interested party, publishes it to a central
//     AIP Registry when its input completes, and injects it (merging
//     compatible Bloom filters by bitwise intersection) into every
//     interested operator.
//
//   - CostBased (§IV-B): does nothing incrementally; when an input to a
//     stateful operator completes, an AIP Manager re-invokes the
//     optimizer's cost machinery (ESTIMATEBENEFIT, Fig. 4) to decide
//     whether scanning the state, building a summary, and injecting it
//     elsewhere pays for itself — including network shipping costs in the
//     distributed setting (§V, "Distributed query extensions").
//
// Both plug into the executor through the exec.Controller interface and the
// per-operator injection points (exec.Point) created by the optimizer.
package core

import (
	"math"
	"sync"

	"repro/internal/bloom"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/types"
)

// SummaryKind selects the AIP-set representation.
type SummaryKind int

const (
	// SummaryBloom uses Bloom filters sized for Options.FPR — the
	// representation the paper's implementation settled on (§V) — in the
	// cache-line-blocked layout (bloom.Blocked): one cache line per probe,
	// and one filter in the class geometry per producer, which every
	// partition worker adds to at once. One rule refines it: when every producer
	// column of a class carries a known integer domain
	// (exec.Point.StateDomains) and the union of those domains spans at most
	// the class's Bloom bits, the class's sets are exact bitmaps over that
	// union (filter.Bitmap) — no larger, and probed without a hash.
	SummaryBloom SummaryKind = iota
	// SummaryHashSet uses exact hash sets; kept for the ablation study
	// (the paper found the precision "generally countered by its increased
	// creation and probing cost").
	SummaryHashSet
)

// CostParams are the constants of the cost model used by CostBased. Units
// are abstract "work units per tuple"; only ratios matter.
type CostParams struct {
	// Tuple is the cost of moving one tuple through one operator.
	Tuple float64
	// Probe is the per-tuple cost of probing one injected filter.
	Probe float64
	// Build is the per-key cost of scanning state into a new AIP set.
	Build float64
	// Fixed is the fixed overhead of creating any AIP set.
	Fixed float64
	// NetworkByte is the cost per byte of shipping a filter to a remote
	// site (the paper assumes 10 Mbps when costing transfers).
	NetworkByte float64
}

// DefaultCostParams returns the calibration used by the experiments.
func DefaultCostParams() CostParams {
	return CostParams{
		Tuple:       1.0,
		Probe:       0.15,
		Build:       0.4,
		Fixed:       64,
		NetworkByte: 0.002,
	}
}

// Options configure a controller.
type Options struct {
	// FPR is the Bloom-filter false-positive target (paper: 5%).
	FPR float64
	// Kind selects Bloom filters or exact hash sets.
	Kind SummaryKind
	// Stats receives filter accounting; required.
	Stats *stats.Registry
	// Topology models filter-shipping costs for remote points; nil means
	// everything is local.
	Topology *network.Topology
	// Cost parameterizes the CostBased manager.
	Cost CostParams
	// ShipFilter, when set, performs remote filter transfers on behalf of
	// the controller; the engine installs a hook bound to the query's
	// execution context so filter shipments run under its recovery policy
	// (retries, per-attempt timeouts, the site's circuit breaker). A non-nil
	// error means the shipment failed and the filter must not be attached.
	// nil falls back to a direct, unguarded link.Transfer.
	ShipFilter func(link *network.Link, site int, nbytes int) error
}

// shipFilter routes a filter transfer through the installed hook.
func (o Options) shipFilter(link *network.Link, site, nbytes int) error {
	if o.ShipFilter != nil {
		return o.ShipFilter(link, site, nbytes)
	}
	return link.Transfer(nbytes, nil)
}

func (o Options) fpr() float64 {
	if o.FPR <= 0 || o.FPR >= 1 {
		return bloom.DefaultFPR
	}
	return o.FPR
}

// ---------------------------------------------------------------------------
// Shared class analysis — the runtime analog of AIPCANDIDATES (Fig. 3).

// classUse is one (point, column) attachment site for a class.
type classUse struct {
	point *exec.Point
	col   int
}

// classInfo aggregates the producers and consumers of one attribute
// equivalence class in the source-predicate graph.
type classInfo struct {
	id        int
	producers []classUse // stateful points; col indexes the state schema
	consumers []classUse // any points; col indexes the input schema
	domain    float64    // distinct-value estimate for the attribute domain
	bits      uint64     // shared Bloom sizing so filters intersect
	k         uint32     // in-block probe count

	// bitmap marks a class whose sets are filter.Bitmaps over [lo, hi], the
	// union of its producers' integer domains (see SummaryBloom).
	bitmap bool
	lo, hi int64
}

// newBitmap returns an empty set of a bitmap class.
func (ci *classInfo) newBitmap() *filter.Bitmap { return filter.NewBitmap(ci.lo, ci.hi) }

// newSet returns an empty AIP set of the class, whichever controller builds
// it: a bitmap over the class domain when bitmap is set (ci.bitmap, unless
// the state holds a value outside it), under SummaryHashSet an exact hash
// set, else a blocked Bloom filter in the class geometry, so that the
// class's filters intersect.
func (ci *classInfo) newSet(kind SummaryKind, bitmap bool) filter.Summary {
	switch {
	case bitmap:
		return ci.newBitmap()
	case kind == SummaryHashSet:
		return filter.NewHashSet(256)
	}
	return filter.Blocked{F: bloom.NewBlockedWithGeometry(ci.bits, ci.k, 0)}
}

// addToSet adds one stored attribute value to an AIP set, safely beside
// concurrent adds: a bitmap takes the value without hashing, a hashed
// summary its key's hash. It reports false for a value a bitmap cannot hold
// — outside its domain, or not integer-backed (the class's producer columns
// never carry one) — after which the set must not be published.
func addToSet(s filter.Summary, v types.Value) bool {
	if bm, ok := s.(*filter.Bitmap); ok {
		switch v.K {
		case types.KindInt, types.KindDate, types.KindBool:
			return bm.Add(v.I)
		}
		return false
	}
	var scratch [32]byte
	key := v.AppendKey(scratch[:0])
	h := types.Hash64(key, 0)
	if hs, ok := s.(*filter.HashSet); ok {
		hs.AddHash(h, key)
	} else {
		s.(filter.Blocked).F.AddHash(h)
	}
	return true
}

// made accounts one AIP set published from op's state (op may be nil): it
// counts the set (and a bitmap among the bitmaps), charges FilterBytes its
// size less what building it already charged, and charges op's filter
// memory by kind.
func (o Options) made(op *stats.OpStats, s filter.Summary, charged int64) {
	o.Stats.FiltersMade.Inc()
	n := s.SizeBytes()
	o.Stats.FilterBytes.Add(int64(n) - charged)
	kind := stats.FilterBloom
	switch s.(type) {
	case *filter.Bitmap:
		kind = stats.FilterBitmap
		o.Stats.FiltersBitmap.Inc()
	case *filter.HashSet:
		kind = stats.FilterHashSet
	}
	if op != nil {
		op.AddFilter(kind, n)
	}
}

// attach injects sum into consumer co's bank from a producer at site from:
// in place of the summary prev returns, or — prev nil or returning nil — as
// a first attachment, counted in FiltersUsed. A consumer at another site is
// shipped sum first (shipFilter), with mu, which the caller holds, released
// across the transfer, so prev is read after it; the shipment counts
// NetworkBytes and FilterNetWork, and a failed one attaches nothing and
// reports false.
func (o Options) attach(mu *sync.Mutex, from int, co classUse, sum filter.Summary, prev func() filter.Summary) bool {
	if link := o.linkFor(from, co.point.Site); link != nil {
		n := sum.SizeBytes()
		mu.Unlock()
		err := o.shipFilter(link, co.point.Site, n)
		mu.Lock()
		if err != nil {
			return false
		}
		o.Stats.NetworkBytes.Add(int64(n))
		o.Stats.FilterNetWork.Add(int64(n))
	}
	var old filter.Summary
	if prev != nil {
		old = prev()
	}
	if old == nil {
		co.point.Bank.Attach([]int{co.col}, sum)
		o.Stats.FiltersUsed.Inc()
	} else {
		co.point.Bank.Replace([]int{co.col}, old, sum)
	}
	return true
}

// pickBitmap applies the bitmap rule to a sized class: every producer
// column carries a known integer domain and their union spans at most
// ci.bits values (compared as hi − lo < bits, which cannot overflow).
func (ci *classInfo) pickBitmap() {
	var lo, hi int64
	for i, pr := range ci.producers {
		if pr.col >= len(pr.point.StateDomains) || !pr.point.StateDomains[pr.col].Known {
			return
		}
		d := pr.point.StateDomains[pr.col]
		if i == 0 {
			lo, hi = d.Lo, d.Hi
		}
		lo, hi = min(lo, d.Lo), max(hi, d.Hi)
	}
	if len(ci.producers) == 0 || uint64(hi)-uint64(lo) >= ci.bits {
		return
	}
	ci.bitmap, ci.lo, ci.hi = true, lo, hi
}

// analyze computes the per-class producer/consumer sets from the
// registered points, discarding classes without both a producer and an
// interested (distinct) consumer — "any potential AIP sets without
// interested parties are then eliminated" (§IV-A). Under SummaryBloom it
// also picks each class's summary: a bitmap where the rule allows, else
// the blocked Bloom filter.
func analyze(points []*exec.Point, fpr float64, kind SummaryKind) map[int]*classInfo {
	classes := make(map[int]*classInfo)
	get := func(id int) *classInfo {
		ci, ok := classes[id]
		if !ok {
			ci = &classInfo{id: id}
			classes[id] = ci
		}
		return ci
	}
	for _, p := range points {
		if p.Stateful {
			for _, col := range p.KeyCols {
				id := p.StateEqIDs[col]
				if id < 0 {
					continue
				}
				get(id).producers = append(get(id).producers, classUse{p, col})
			}
		}
		for col, id := range p.EqIDs {
			if id < 0 {
				continue
			}
			ci := get(id)
			ci.consumers = append(ci.consumers, classUse{p, col})
			if d := p.DomainDistinct[col]; d > ci.domain {
				ci.domain = d
			}
		}
	}
	for id, ci := range classes {
		useful := false
		for _, pr := range ci.producers {
			for _, co := range ci.consumers {
				if co.point != pr.point {
					useful = true
					break
				}
			}
			if useful {
				break
			}
		}
		if !useful {
			delete(classes, id)
			continue
		}
		// Shared sizing: the largest expected producer population governs
		// the class's filter length so all of its filters are
		// intersection-compatible. The budget is rounded up to whole
		// cache-line blocks and the class-wide probe count derived from the
		// resulting bits-per-key ratio.
		maxN := 1.0
		for _, pr := range ci.producers {
			n := pr.point.EstRows
			if ci.domain > 0 {
				n = math.Min(n, ci.domain)
			}
			if n > maxN {
				maxN = n
			}
		}
		ci.bits = bloom.BlockedBitsFor(int(maxN), fpr)
		ci.k = bloom.BlockedKFor(int(maxN), ci.bits)
		if kind == SummaryBloom {
			ci.pickBitmap()
		}
	}
	return classes
}

// linkFor returns the link used to ship a filter between two sites, or nil
// when they are co-located (or no topology is configured).
func (o Options) linkFor(a, b int) *network.Link {
	if o.Topology == nil || a == b {
		return nil
	}
	return o.Topology.LinkBetween(a, b)
}
