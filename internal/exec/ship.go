package exec

import (
	"errors"

	"repro/internal/network"
	"repro/internal/types"
)

// Ship moves its child's output across a simulated network link: the
// sender side of a distributed exchange. Its Point is a probe-only AIP
// injection point executing at the remote site — attaching a filter here
// prunes tuples *before* they cross the wire, which is exactly the
// Bloomjoin-style saving the paper's distributed experiments (Q1C, Q3C)
// measure.
//
// When the link carries a fault profile, every batch transfer runs under
// the Context's recovery policy: per-attempt timeouts, bounded retries with
// backoff, and the remote site's circuit breaker. A batch is delivered
// downstream only after its transfer succeeds, so retries never duplicate
// tuples; a source that stays dead fails the query or degrades it to a
// partial result per the FailureMode.
type Ship struct {
	Name  string
	Child Op
	Link  *network.Link
	Point *Point

	// Table is the base table being shipped (names the source in
	// SourceError); Site is the remote site, keying its circuit breaker.
	Table string
	Site  int
}

// Schema returns the child schema.
func (s *Ship) Schema() *types.Schema { return s.Child.Schema() }

// Start launches the shipping goroutine.
func (s *Ship) Start(ctx *Context) <-chan Batch {
	in := s.Child.Start(ctx)
	out := make(chan Batch, pipelineDepth)
	op := ctx.Stats.NewOp("ship:" + s.Name)
	if s.Point != nil {
		s.Point.Op = op
	}
	// The retry driver exists only for faulty links: a reliable simulated
	// link cannot fail (only cancellation interrupts it), so the fault-free
	// path stays identical to the baseline engine.
	var ret *retrier
	if s.Link != nil && s.Link.Faults.Active() {
		ret = newRetrier(ctx, op, s.Site, "ship:"+s.Name)
	}
	ctx.Spawn(func() {
		defer close(out)
		var sc ProbeScratch
		for b := range in {
			nIn := int64(b.Len())
			nbytes := 0
			// Mark the tuples that survive the remote-side AIP filters with
			// a selection vector instead of copying them; only survivors
			// are charged to the simulated link.
			var kept []int32
			if b.Sel != nil {
				kept = b.Sel[:0]
			} else {
				kept = getSel()
			}
			if s.Point != nil && s.Point.Bank.Len() > 0 {
				kept = s.Point.Bank.ProbeBatch(b.Tuples, nil, b.Live(), kept, &sc)
			} else {
				kept = append(kept, b.Live()...)
			}
			pruned := nIn - int64(len(kept))
			for _, l := range kept {
				nbytes += b.Tuples[l].MemSize()
			}
			op.In.Add(nIn)
			op.Pruned.Add(pruned)
			if s.Point != nil {
				s.Point.received.Add(nIn)
			}
			b.Sel = kept
			if len(kept) > 0 && s.Link != nil {
				var err error
				if ret != nil {
					err = ret.do(func(stop <-chan struct{}) error {
						aerr := s.Link.Transfer(nbytes, stop)
						var fe *network.FaultError
						if errors.As(aerr, &fe) && fe.Sent > 0 {
							op.WastedBytes.Add(int64(fe.Sent))
						}
						return aerr
					})
				} else {
					err = s.Link.Transfer(nbytes, ctx.Cancelled())
				}
				if err != nil {
					if errors.Is(err, network.ErrCancelled) {
						return
					}
					attempts := 1
					if ret != nil {
						attempts = ret.attempts
					}
					ctx.FailSource(&SourceError{
						Table: s.Table, Site: s.Site,
						Attempts: attempts, Cause: err,
					})
					if ctx.Recovery.Mode != PartialOnSourceError {
						return // query is being cancelled with the SourceError
					}
					// Partial mode: the query keeps running without this
					// source. Drain the child so its goroutines finish
					// (upstream scans also observe the abandoned table and
					// stop early), then complete the stream as done.
					PutBatch(b)
					for rest := range in {
						PutBatch(rest)
					}
					break
				}
				ctx.Stats.NetworkBytes.Add(int64(nbytes))
			}
			if len(kept) == 0 {
				PutBatch(b)
				continue
			}
			if !send(ctx, out, b, &op.Out) {
				return
			}
		}
		ctx.publish(s.Point, nil)
	})
	return out
}
