package exec

import (
	"slices"
	"time"

	"repro/internal/stats"
)

// Start order: a wired scan holds its first chunk for two kinds of input.
//
//   - The sibling wait (every strategy): the other input of the join the scan
//     feeds, when its sources are at least siblingWaitRatio times smaller, so
//     it completes first and the §VI-A short-circuit leaves the scan's side
//     probe-only: the big input is never buffered.
//   - The filter wait (under an AIP controller): every input whose sources are
//     at least filterWaitRatio times smaller than the scan's own, so the
//     filters built from them exist before the scan's first row.
//
// Every wait goes to an input with strictly fewer source rows, which is why
// the waits cannot form a cycle; the package comment has the argument.

// filterWaitRatio is the size gap at which a scan waits for a filter's
// producer: the wait costs at most an eighth of the scan's volume, and a
// source of comparable size is not worth serializing behind for a filter that
// may prune little.
const filterWaitRatio = 8

// siblingWaitRatio is the size gap at which a scan waits for its join
// sibling. It is lower than filterWaitRatio because the wait buys the scan's
// whole side, which then stores nothing, not whatever a filter prunes. It
// must reach TPC-H Q9 (Q5A), whose partsupp side is 7.5× smaller than
// lineitem's. Siblings of equal rank deliberately do not wait: ranked on
// estimated output instead, Q17's outer lineitem scan would wait for j1.right,
// which cut Baseline Q17's peak state from 78.7 to 0.9 MB but cost 27% of its
// queries a second, and 26% under Feed-forward — the two 300 k-row lineitem
// scans then run one after the other on two cores.
const siblingWaitRatio = 4

// RankSources fills in Point.SourceRows for every operator input under op —
// the size of the largest source feeding it when every scan below is local
// and undelayed, else 0 (a modeled source's duration is the model's; nothing
// waits for it) — links the two inputs of every join as siblings, and returns
// the same size for op itself. A source's size is what its scan is expected
// to emit: the table's row count, cut to the optimizer's estimate for the
// input it is wired to (the pushed predicate): a selective scan of a big
// table is a cheap source of a strong filter.
func RankSources(op Op) int {
	rank := func(pt *Point, child Op) int {
		n := RankSources(child)
		if pt != nil {
			pt.SourceRows = n
		}
		return n
	}
	switch v := op.(type) {
	case *Scan:
		if v.modeled() || v.Site != 0 {
			return 0
		}
		n := len(v.Rows)
		if v.Point != nil && v.Point.EstRows > 0 {
			n = min(n, int(v.Point.EstRows))
		}
		return max(n, 1)
	case *Filter:
		return RankSources(v.Child)
	case *Project:
		return RankSources(v.Child)
	case *HashAgg:
		return rank(v.Point, v.Child)
	case *Distinct:
		return rank(v.Point, v.Child)
	case *HashJoin:
		l, r := rank(v.LPoint, v.Left), rank(v.RPoint, v.Right)
		if v.LPoint != nil && v.RPoint != nil {
			v.LPoint.sibling, v.RPoint.sibling = v.RPoint, v.LPoint
		}
		if l > 0 && r > 0 {
			return max(l, r)
		}
	case *Ship:
		RankSources(v.Child)
	}
	return 0
}

// StartWaits returns the inputs the wired scan feeding pt holds its first
// chunk for: under a controller every registered input with sources at least
// filterWaitRatio times smaller than pt's, and pt's join sibling when its
// sources are at least siblingWaitRatio times smaller. Each has SourceRows > 0
// and strictly below pt's.
func (c *Context) StartWaits(pt *Point) []*Point {
	if pt == nil || pt.SourceRows == 0 {
		return nil
	}
	smaller := func(q *Point, ratio int) bool {
		return q != nil && q.SourceRows > 0 && q.SourceRows*ratio <= pt.SourceRows
	}
	var ws []*Point
	if c.Ctl != nil {
		for _, q := range c.Points() {
			if smaller(q, filterWaitRatio) {
				ws = append(ws, q)
			}
		}
	}
	if s := pt.sibling; smaller(s, siblingWaitRatio) && !slices.Contains(ws, s) {
		ws = append(ws, s)
	}
	return ws
}

// awaitStart blocks the wired scan feeding pt until every input StartWaits
// names has been published, and records the wait on the scan's op; false when
// the query was cancelled first.
func (c *Context) awaitStart(pt *Point, op *stats.OpStats) bool {
	ws := c.StartWaits(pt)
	if len(ws) == 0 {
		return true
	}
	start := time.Now()
	for _, q := range ws {
		select {
		case <-q.published:
		case <-c.cancel:
			return false
		}
	}
	op.Waited = time.Since(start)
	op.WaitedFor = make([]string, len(ws))
	for i, q := range ws {
		op.WaitedFor[i] = q.Op.Name // set before q's operator started its inputs, so before publication
	}
	return true
}
