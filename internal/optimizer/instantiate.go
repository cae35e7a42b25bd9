package optimizer

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Instantiate clones the built plan into a fresh, runnable copy: every
// operator is duplicated, every injection point is replaced by a
// CloneForRun copy with zeroed runtime state (ancestor chains rewritten to
// the clones), and `?` placeholders in the plan's expressions are
// substituted with the given arguments as typed constants. The receiver is
// never mutated, so one Build result can serve as a plan-cache or
// prepared-statement template executed many times, concurrently.
//
// When args is empty and the plan carries no parameters the expression
// trees are shared with the template (they are immutable at runtime); only
// operators and points are copied.
func (r *Result) Instantiate(args []types.Value) (*Result, error) {
	in := &instantiator{args: args, pmap: make(map[*exec.Point]*exec.Point, len(r.Points))}
	root, err := in.op(r.Root)
	if err != nil {
		return nil, err
	}
	exec.RankSources(root) // each point learns how big its sources are (start order)
	// Preserve the template's point order (it fixes the Context.Register
	// id assignment) and rewrite ancestor chains template→clone.
	points := make([]*exec.Point, len(r.Points))
	for i, p := range r.Points {
		np, ok := in.pmap[p]
		if !ok {
			return nil, fmt.Errorf("optimizer: point %q is not reachable from the plan root", p.Name)
		}
		points[i] = np
	}
	for _, np := range points {
		for i, anc := range np.Ancestors {
			mapped, ok := in.pmap[anc]
			if !ok {
				return nil, fmt.Errorf("optimizer: ancestor point %q is not reachable from the plan root", anc.Name)
			}
			np.Ancestors[i] = mapped
		}
	}
	return &Result{Root: root, Points: points, EstRows: r.EstRows}, nil
}

type instantiator struct {
	args []types.Value
	pmap map[*exec.Point]*exec.Point
}

func (in *instantiator) point(p *exec.Point) *exec.Point {
	if p == nil {
		return nil
	}
	if np, ok := in.pmap[p]; ok {
		return np
	}
	np := p.CloneForRun()
	in.pmap[p] = np
	return np
}

// expr substitutes parameters; without arguments the (immutable) template
// expression is shared.
func (in *instantiator) expr(e expr.Expr) (expr.Expr, error) {
	if e == nil || len(in.args) == 0 {
		return e, nil
	}
	return expr.BindParams(e, in.args)
}

func (in *instantiator) exprs(es []expr.Expr) ([]expr.Expr, error) {
	if len(in.args) == 0 {
		return es, nil
	}
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		ne, err := expr.BindParams(e, in.args)
		if err != nil {
			return nil, err
		}
		out[i] = ne
	}
	return out, nil
}

func (in *instantiator) op(o exec.Op) (exec.Op, error) {
	switch v := o.(type) {
	case *exec.Scan:
		c := *v // table rows and schema are shared, per-run state is local to Start
		c.Point = in.point(v.Point)
		return &c, nil

	case *exec.Filter:
		child, err := in.op(v.Child)
		if err != nil {
			return nil, err
		}
		pred, err := in.expr(v.Pred)
		if err != nil {
			return nil, err
		}
		return &exec.Filter{Child: child, Pred: pred, Name: v.Name}, nil

	case *exec.Project:
		child, err := in.op(v.Child)
		if err != nil {
			return nil, err
		}
		exprs, err := in.exprs(v.Exprs)
		if err != nil {
			return nil, err
		}
		return &exec.Project{Child: child, Exprs: exprs, Sch: v.Sch, Name: v.Name}, nil

	case *exec.HashJoin:
		left, err := in.op(v.Left)
		if err != nil {
			return nil, err
		}
		right, err := in.op(v.Right)
		if err != nil {
			return nil, err
		}
		residual, err := in.expr(v.Residual)
		if err != nil {
			return nil, err
		}
		j := exec.NewHashJoin(v.Name, left, right, v.LKeys, v.RKeys, v.Out, residual)
		j.LPoint = in.point(v.LPoint)
		j.RPoint = in.point(v.RPoint)
		return j, nil

	case *exec.HashAgg:
		child, err := in.op(v.Child)
		if err != nil {
			return nil, err
		}
		groupBy, err := in.exprs(v.GroupBy)
		if err != nil {
			return nil, err
		}
		aggs := v.Aggs
		if len(in.args) > 0 {
			aggs = make([]plan.AggSpec, len(v.Aggs))
			for i, a := range v.Aggs {
				na := a
				if a.Arg != nil {
					arg, err := expr.BindParams(a.Arg, in.args)
					if err != nil {
						return nil, err
					}
					na.Arg = arg
				}
				aggs[i] = na
			}
		}
		h := exec.NewHashAgg(v.Name, child, groupBy, aggs, v.Schema())
		h.Point = in.point(v.Point)
		return h, nil

	case *exec.Distinct:
		child, err := in.op(v.Child)
		if err != nil {
			return nil, err
		}
		return &exec.Distinct{Name: v.Name, Child: child, Point: in.point(v.Point)}, nil

	case *exec.Ship:
		child, err := in.op(v.Child)
		if err != nil {
			return nil, err
		}
		return &exec.Ship{Name: v.Name, Child: child, Link: v.Link, Point: in.point(v.Point), Table: v.Table, Site: v.Site}, nil

	default:
		return nil, fmt.Errorf("optimizer: cannot instantiate operator %T", o)
	}
}
