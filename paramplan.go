package sip

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// adhocPlan resolves the plan template for an ad-hoc (non-prepared) query,
// parameterizing constant literals so that queries differing only in
// constants share one cached template: the SQL is normalized at the token
// level (sqlparser.Normalize lifts literals to `?` placeholders), the
// normalized text keys the plan cache, and the lifted literals come back as
// execution arguments bound exactly like prepared-statement arguments. This
// is what keeps the serving tier's ad-hoc path cheap — a wire client that
// never prepares still pays parse/bind/optimize only once per query shape.
//
// Queries that cannot parameterize — caching disabled, user placeholders
// present, no literals, a construct where a literal is legal but a
// parameter is not, or a literal its parameter's inferred kind cannot hold
// (paramFits) — fall back to the literal plan path unchanged.
func (e *Engine) adhocPlan(sql string, opts Options) (*enginePlan, []Value, error) {
	// The nil-Topology remote case never caches (see plan); parameterizing
	// it would buy nothing.
	if e.cache == nil || (len(opts.RemoteTables) > 0 && opts.Topology == nil) {
		p, err := e.plan(sql, opts)
		return p, nil, err
	}
	norm, lits, ok := sqlparser.Normalize(sql)
	if !ok {
		p, err := e.plan(sql, opts)
		return p, nil, err
	}
	args, err := litValues(lits)
	if err != nil {
		// A literal the binder would also reject (e.g. an out-of-range
		// integer): let the literal path produce its own error message.
		p, perr := e.plan(sql, opts)
		return p, nil, perr
	}
	key := planKey(norm, opts, e.cat.Version())
	p, ok := e.cache.get(key)
	if !ok || p.numParams != len(args) {
		p, err = e.buildPlan(norm, opts)
		if err != nil || p.numParams != len(args) {
			// Either the statement is genuinely invalid — rebuild from the
			// original text so the error points at the user's own source —
			// or a parameter was rejected where the literal was fine; the
			// literal plan still caches under its exact text.
			p2, perr := e.plan(sql, opts)
			return p2, nil, perr
		}
		e.cache.put(key, p)
	}
	for i, a := range args {
		if !paramFits(a, p.paramKinds[i]) {
			p2, perr := e.plan(sql, opts)
			return p2, nil, perr
		}
	}
	if p.labelParams != nil {
		p = p.withLabels(lits)
	}
	return p, args, nil
}

// withLabels returns a copy of p whose result labels print the lifted
// literals back where the template's labels print their placeholders —
// `(count(*)*2)`, as the literal plan labels it, not `(count(*)*?)`.
func (p *enginePlan) withLabels(lits []sqlparser.Lit) *enginePlan {
	cols := slices.Clone(p.schema.Cols)
	for i, params := range p.labelParams {
		if params == nil {
			continue
		}
		var sb strings.Builder
		name, k := cols[i].Name, 0
		for _, np := range params {
			sb.WriteString(name[k:np.At])
			if l := lits[np.Ord]; l.Kind == sqlparser.LitString {
				// The literal's StringLit text, spaces dropped like
				// every default name's.
				sb.WriteString(strings.ReplaceAll("'"+l.Text+"'", " ", ""))
			} else {
				sb.WriteString(l.Text)
			}
			k = np.At + 1
		}
		sb.WriteString(name[k:])
		cols[i].Name = sb.String()
	}
	cp := *p
	cp.schema = types.NewSchema(cols...)
	return &cp
}

// paramFits reports whether a lifted literal binds to a parameter of the
// inferred kind want without changing what the literal plan would compute or
// report: the same kind, an INTEGER where a DECIMAL is inferred, or a string
// where a DATE is. Anything else — a string for a number (`SELECT r_name,
// 'x'`), a DECIMAL for an INTEGER or an unconstrained parameter (`SELECT
// r_regionkey * 2.5`, whose column the template types INTEGER) — takes the
// literal plan.
func paramFits(v Value, want types.Kind) bool {
	return v.K == want || v.K == types.KindInt && want == types.KindFloat ||
		v.K == types.KindString && want == types.KindDate
}

// litValues converts the normalizer's lifted literals to typed values, the
// way the binder lowers the same literal tokens (strconv.ParseInt /
// ParseFloat; strings stay strings and coerce to dates at bind when the
// inferred parameter kind asks for one).
func litValues(lits []sqlparser.Lit) ([]Value, error) {
	args := make([]Value, len(lits))
	for i, l := range lits {
		switch l.Kind {
		case sqlparser.LitInt:
			n, err := strconv.ParseInt(l.Text, 10, 64)
			if err != nil {
				return nil, err
			}
			args[i] = types.Int(n)
		case sqlparser.LitFloat:
			f, err := strconv.ParseFloat(l.Text, 64)
			if err != nil {
				return nil, err
			}
			args[i] = types.Float(f)
		default:
			args[i] = types.Str(l.Text)
		}
	}
	return args, nil
}
