package exec

// Start order; the package comment has the rule and why it cannot deadlock.

// startOrderRatio is the size gap at which a scan waits for an input: the
// largest source under it is at least this many times smaller than the
// scan's own, so the wait costs at most an eighth of the scan's volume; a
// source of comparable size (4×) is not worth serializing behind.
const startOrderRatio = 8

// RankSources fills in Point.SourceRows for every operator input under op —
// the size of the largest source feeding it when every scan below is local
// and unpaced, else 0 (a modeled source's duration is the model's; nothing
// waits for it) — and returns the same for op itself. A source's size is
// what its scan is expected to emit: the table's row count, cut to the
// optimizer's estimate for the input it is wired to (the pushed predicate):
// a selective scan of a big table is a cheap source of a strong filter.
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
		if v.sequential() || v.Site != 0 {
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
		if l, r := rank(v.LPoint, v.Left), rank(v.RPoint, v.Right); l > 0 && r > 0 {
			return max(l, r)
		}
	case *Ship:
		RankSources(v.Child)
	}
	return 0
}

// awaitSmaller blocks the wired scan feeding pt until every registered input
// whose sources are all at least startOrderRatio times smaller than the
// scan's own has been published; false when the query was cancelled first.
func (c *Context) awaitSmaller(pt *Point) bool {
	if c.Ctl == nil || pt == nil {
		return true
	}
	for _, q := range c.Points() {
		if q.SourceRows > 0 && q.SourceRows*startOrderRatio <= pt.SourceRows {
			select {
			case <-q.published:
			case <-c.cancel:
				return false
			}
		}
	}
	return true
}
