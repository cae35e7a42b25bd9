package plan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/sqlparser"
	"repro/internal/types"
)

// CorrPair records one correlation equality of a decorrelated subquery:
// the outer block's global column and the position (within the derived
// relation's output schema) of the matching group-by column.
type CorrPair struct {
	OuterCol    int // global column id in the outer block
	InnerOutCol int // output position within the derived relation
}

// Bind parses nothing — it binds an already-parsed statement against the
// catalog, decorrelating scalar subqueries, and returns the root block.
func Bind(cat *catalog.Catalog, stmt *sqlparser.SelectStmt) (*Block, error) {
	b := &binder{cat: cat, eq: newEqAlloc()}
	blk, err := b.bindSelect(stmt, nil)
	if err != nil {
		return nil, err
	}
	b.eq.finalize(blk)
	blk.NumParams = stmt.NumParams
	if b.numParams > blk.NumParams {
		blk.NumParams = b.numParams
	}
	if blk.NumParams > 0 {
		blk.ParamKinds = make([]types.Kind, blk.NumParams) // an unbound ordinal stays KindNull
		for _, p := range b.params {
			blk.ParamKinds[p.Idx] = p.Kind()
		}
	}
	return blk, nil
}

// BindSQL parses and binds in one step.
func BindSQL(cat *catalog.Catalog, sql string) (*Block, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Bind(cat, stmt)
}

// ---------------------------------------------------------------------------
// Equivalence-class allocation (the source-predicate graph of §IV-A).

type eqAlloc struct {
	parent []int
}

func newEqAlloc() *eqAlloc { return &eqAlloc{} }

func (e *eqAlloc) fresh() int {
	id := len(e.parent)
	e.parent = append(e.parent, id)
	return id
}

func (e *eqAlloc) find(x int) int {
	for e.parent[x] != x {
		e.parent[x] = e.parent[e.parent[x]]
		x = e.parent[x]
	}
	return x
}

func (e *eqAlloc) union(a, b int) {
	ra, rb := e.find(a), e.find(b)
	if ra != rb {
		e.parent[ra] = rb
	}
}

// finalize rewrites every block's EqIDs to canonical class roots.
func (e *eqAlloc) finalize(b *Block) {
	for i := range b.EqIDs {
		b.EqIDs[i] = e.find(b.EqIDs[i])
	}
	for _, r := range b.Rels {
		if r.Sub != nil {
			e.finalize(r.Sub)
		}
	}
}

// ---------------------------------------------------------------------------
// Binder.

type binder struct {
	cat       *catalog.Catalog
	eq        *eqAlloc
	nextID    int
	numParams int           // highest placeholder ordinal seen + 1
	params    []*expr.Param // every placeholder bound, kinds inferred in place
}

// scope is the name-resolution environment: the block being bound plus its
// lexical parent (for correlated subqueries).
type scope struct {
	block  *Block
	parent *scope
	// outerRefs collects the outer global columns referenced while binding
	// the current block (correlation witnesses).
	outerRefs map[int]types.Column
}

// outerRef is a transient expression node standing for a correlated
// reference to an enclosing block; decorrelation removes every instance
// before the block is returned.
type outerRef struct {
	outerCol int
	col      types.Column
}

func (o *outerRef) Eval(types.Tuple) types.Value {
	panic("plan: correlated reference survived decorrelation")
}
func (o *outerRef) Kind() types.Kind { return o.col.Kind }
func (o *outerRef) String() string   { return "outer:" + o.col.QualifiedName() }

// aggRef is a transient marker for an aggregate call inside a SELECT item;
// it is replaced by a post-aggregation column reference.
type aggRef struct {
	idx  int // index into the block's Aggs
	kind types.Kind
	name string
}

func (a *aggRef) Eval(types.Tuple) types.Value { panic("plan: unresolved aggregate reference") }
func (a *aggRef) Kind() types.Kind             { return a.kind }
func (a *aggRef) String() string               { return "agg:" + a.name }

func (b *binder) bindSelect(stmt *sqlparser.SelectStmt, parent *scope) (*Block, error) {
	blk := &Block{Global: types.NewSchema()}
	sc := &scope{block: blk, parent: parent, outerRefs: map[int]types.Column{}}

	// FROM list.
	for _, ref := range stmt.From {
		if ref.Subquery != nil {
			sub, err := b.bindSelect(ref.Subquery, nil) // derived tables are uncorrelated
			if err != nil {
				return nil, err
			}
			if err := b.addDerivedRel(blk, ref.Alias, sub, nil); err != nil {
				return nil, err
			}
			continue
		}
		tbl, err := b.cat.Table(ref.Name)
		if err != nil {
			return nil, err
		}
		b.addBaseRel(blk, ref.EffectiveAlias(), tbl)
	}

	// WHERE: split into conjuncts at the AST level so each scalar subquery
	// is decorrelated in the context of its own conjunct.
	if stmt.Where != nil {
		for _, conj := range splitASTConjuncts(stmt.Where) {
			bound, err := b.bindExpr(conj, sc)
			if err != nil {
				return nil, err
			}
			if hasOuterRef(bound) {
				// This conjunct correlates the block with its parent; the
				// caller (decorrelation) extracts it. Stash it with a
				// marker conjunct; extraction happens in decorrelate().
				blk.Conjuncts = append(blk.Conjuncts, Conjunct{E: bound, Rels: nil})
				continue
			}
			blk.AddConjunct(bound)
			b.noteEquality(blk, bound)
		}
	}

	// GROUP BY.
	for _, g := range stmt.GroupBy {
		ge, err := b.bindExpr(g, sc)
		if err != nil {
			return nil, err
		}
		if hasOuterRef(ge) {
			return nil, fmt.Errorf("plan: correlated GROUP BY expression %s is not supported", ge)
		}
		blk.GroupBy = append(blk.GroupBy, ge)
	}

	// SELECT items: extract aggregates, then bind outputs.
	if err := b.bindOutputs(stmt, blk, sc); err != nil {
		return nil, err
	}
	blk.Distinct = stmt.Distinct
	return blk, nil
}

// addBaseRel appends a base-table relation, assigning fresh equivalence
// nodes to its columns.
func (b *binder) addBaseRel(blk *Block, alias string, tbl *catalog.Table) *Rel {
	cols := make([]types.Column, len(tbl.Schema.Cols))
	for i, c := range tbl.Schema.Cols {
		cols[i] = types.Column{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	rel := &Rel{
		Alias:  alias,
		Table:  tbl,
		Schema: types.NewSchema(cols...),
		Offset: blk.Global.Len(),
	}
	blk.Rels = append(blk.Rels, rel)
	blk.Global = blk.Global.Concat(rel.Schema)
	for range cols {
		blk.EqIDs = append(blk.EqIDs, b.eq.fresh())
	}
	return rel
}

// addDerivedRel appends a nested-block relation. corr carries decorrelation
// pairs (nil for plain derived tables); equivalence nodes flow through from
// the sub-block's outputs so AIP classes span the block boundary.
func (b *binder) addDerivedRel(blk *Block, alias string, sub *Block, corr []CorrPair) error {
	outSchema := sub.OutputSchema()
	cols := make([]types.Column, outSchema.Len())
	for i, c := range outSchema.Cols {
		cols[i] = types.Column{Table: alias, Name: c.Name, Kind: c.Kind}
	}
	rel := &Rel{
		Alias:      alias,
		Sub:        sub,
		Schema:     types.NewSchema(cols...),
		Offset:     blk.Global.Len(),
		Correlated: corr,
	}
	blk.Rels = append(blk.Rels, rel)
	blk.Global = blk.Global.Concat(rel.Schema)
	outEq := b.outputEqNodes(sub)
	for i := range cols {
		if outEq[i] >= 0 {
			blk.EqIDs = append(blk.EqIDs, outEq[i])
		} else {
			blk.EqIDs = append(blk.EqIDs, b.eq.fresh())
		}
	}
	return nil
}

// outputEqNodes maps each output column of a block to the equivalence node
// of its source attribute, or -1 when the output is computed (aggregates,
// arithmetic) and therefore starts a fresh class.
func (b *binder) outputEqNodes(blk *Block) []int {
	out := make([]int, len(blk.Output))
	for i, o := range blk.Output {
		out[i] = -1
		if len(blk.Aggs) > 0 || len(blk.GroupBy) > 0 {
			// Output is bound against the post-agg schema: positions
			// [0,len(GroupBy)) are group-by columns.
			if cr, ok := o.E.(*expr.ColRef); ok && cr.Idx < len(blk.GroupBy) {
				if src, ok2 := blk.GroupBy[cr.Idx].(*expr.ColRef); ok2 {
					out[i] = blk.EqIDs[src.Idx]
				}
			}
			continue
		}
		if cr, ok := o.E.(*expr.ColRef); ok {
			out[i] = blk.EqIDs[cr.Idx]
		}
	}
	return out
}

// noteEquality unions the equivalence nodes of `col = col` conjuncts.
func (b *binder) noteEquality(blk *Block, e expr.Expr) {
	if l, r, ok := expr.EquiPair(e); ok {
		b.eq.union(blk.EqIDs[l.Idx], blk.EqIDs[r.Idx])
	}
}

// splitASTConjuncts flattens top-level ANDs in the unbound AST.
func splitASTConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return append(splitASTConjuncts(be.L), splitASTConjuncts(be.R)...)
	}
	return []sqlparser.Expr{e}
}

func hasOuterRef(e expr.Expr) bool {
	found := false
	walkExpr(e, func(x expr.Expr) {
		if _, ok := x.(*outerRef); ok {
			found = true
		}
	})
	return found
}

func walkExpr(e expr.Expr, f func(expr.Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch v := e.(type) {
	case *expr.Binary:
		walkExpr(v.L, f)
		walkExpr(v.R, f)
	case *expr.Not:
		walkExpr(v.E, f)
	case *expr.Like:
		walkExpr(v.E, f)
	case *expr.Year:
		walkExpr(v.E, f)
	}
}

// ---------------------------------------------------------------------------
// Expression binding.

var aggFuncs = map[string]AggFunc{
	"sum": AggSum, "min": AggMin, "max": AggMax, "avg": AggAvg, "count": AggCount,
}

func (b *binder) bindExpr(e sqlparser.Expr, sc *scope) (expr.Expr, error) {
	switch v := e.(type) {
	case *sqlparser.NumberLit:
		if v.IsInt {
			n, err := strconv.ParseInt(v.Text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad integer literal %q: %w", v.Text, err)
			}
			return &expr.Const{V: types.Int(n)}, nil
		}
		f, err := strconv.ParseFloat(v.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("plan: bad numeric literal %q: %w", v.Text, err)
		}
		return &expr.Const{V: types.Float(f)}, nil

	case *sqlparser.StringLit:
		return &expr.Const{V: types.Str(v.Val)}, nil

	case *sqlparser.Placeholder:
		if v.Ord+1 > b.numParams {
			b.numParams = v.Ord + 1
		}
		// The kind starts unconstrained; bindBinary infers it from the
		// expression the placeholder is compared against.
		p := &expr.Param{Idx: v.Ord}
		b.params = append(b.params, p)
		return p, nil

	case *sqlparser.Ident:
		return b.resolveIdent(v, sc)

	case *sqlparser.NotExpr:
		inner, err := b.bindExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: inner}, nil

	case *sqlparser.LikeExpr:
		inner, err := b.bindExpr(v.E, sc)
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: inner, Pattern: v.Pattern, Negate: v.Negate}, nil

	case *sqlparser.Call:
		if _, isAgg := aggFuncs[v.Name]; isAgg {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", v.Name)
		}
		if v.Name == "year" {
			if len(v.Args) != 1 {
				return nil, fmt.Errorf("plan: year() takes one argument")
			}
			arg, err := b.bindExpr(v.Args[0], sc)
			if err != nil {
				return nil, err
			}
			return &expr.Year{E: arg}, nil
		}
		return nil, fmt.Errorf("plan: unknown function %q", v.Name)

	case *sqlparser.BinaryExpr:
		return b.bindBinary(v, sc)

	case *sqlparser.SubqueryExpr:
		return b.decorrelate(v.Sel, sc)

	default:
		return nil, fmt.Errorf("plan: unsupported expression %T", e)
	}
}

var binOps = map[string]expr.BinOp{
	"+": expr.OpAdd, "-": expr.OpSub, "*": expr.OpMul, "/": expr.OpDiv,
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt, "<=": expr.OpLe,
	">": expr.OpGt, ">=": expr.OpGe, "AND": expr.OpAnd, "OR": expr.OpOr,
}

func (b *binder) bindBinary(v *sqlparser.BinaryExpr, sc *scope) (expr.Expr, error) {
	op, ok := binOps[v.Op]
	if !ok {
		return nil, fmt.Errorf("plan: unknown operator %q", v.Op)
	}
	l, err := b.bindExpr(v.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(v.R, sc)
	if err != nil {
		return nil, err
	}
	l, r = typeOperands(op, l, r)
	return &expr.Binary{Op: op, L: l, R: r}, nil
}

// typeOperands coerces string literals compared against dates into date
// values and infers placeholder kinds from the opposite operand: in a
// comparison, and in arithmetic with a DECIMAL operand, which is DECIMAL
// whatever the placeholder's numeric kind (Q17's `0.2 * avg(…)`). Next to an
// INTEGER in arithmetic a placeholder stays unconstrained.
func typeOperands(op expr.BinOp, l, r expr.Expr) (expr.Expr, expr.Expr) {
	if op.IsComparison() {
		l, r = coerceDate(l, r)
		r, l = coerceDate(r, l)
		inferParamKind(l, r)
		inferParamKind(r, l)
	} else if op <= expr.OpDiv { // OpAdd … OpDiv
		if r.Kind() == types.KindFloat {
			inferParamKind(l, r)
		}
		if l.Kind() == types.KindFloat {
			inferParamKind(r, l)
		}
	}
	return l, r
}

// inferParamKind types an unconstrained `?` placeholder from the expression
// it is compared against, so date and float arguments coerce correctly at
// execute time.
func inferParamKind(p, other expr.Expr) {
	pp, ok := p.(*expr.Param)
	if !ok || pp.Knd != types.KindNull {
		return
	}
	if _, otherIsParam := other.(*expr.Param); otherIsParam {
		return
	}
	pp.Knd = other.Kind()
}

// coerceDate converts rhs string constants to dates when lhs is a date.
func coerceDate(l, r expr.Expr) (expr.Expr, expr.Expr) {
	if l.Kind() != types.KindDate {
		return l, r
	}
	c, ok := r.(*expr.Const)
	if !ok || c.V.K != types.KindString {
		return l, r
	}
	if d, err := parseLooseDate(c.V.S); err == nil {
		return l, &expr.Const{V: d}
	}
	return l, r
}

// parseLooseDate accepts 'YYYY-MM-DD' and 'YYYY-M-D' forms (the paper's
// queries write '2007-1-1').
func parseLooseDate(s string) (types.Value, error) {
	return types.DateFromLooseString(s)
}

// resolveIdent looks the identifier up in the current block, then in the
// enclosing scope (producing a correlated outerRef).
func (b *binder) resolveIdent(id *sqlparser.Ident, sc *scope) (expr.Expr, error) {
	idx, err := sc.block.Global.Resolve(id.Qualifier, id.Name)
	if err == nil {
		return &expr.ColRef{Idx: idx, Col: sc.block.Global.Cols[idx]}, nil
	}
	if strings.Contains(err.Error(), "ambiguous") {
		return nil, err
	}
	if sc.parent != nil {
		pidx, perr := sc.parent.block.Global.Resolve(id.Qualifier, id.Name)
		if perr == nil {
			col := sc.parent.block.Global.Cols[pidx]
			sc.outerRefs[pidx] = col
			return &outerRef{outerCol: pidx, col: col}, nil
		}
	}
	return nil, err
}

// ---------------------------------------------------------------------------
// Output binding (aggregate extraction).

func (b *binder) bindOutputs(stmt *sqlparser.SelectStmt, blk *Block, sc *scope) error {
	grouped := len(stmt.GroupBy) > 0
	// First pass: detect aggregates anywhere in the select list.
	for _, item := range stmt.Items {
		if !item.Star && containsAgg(item.Expr) {
			grouped = true
		}
	}
	for _, item := range stmt.Items {
		if item.Star {
			if grouped {
				return fmt.Errorf("plan: SELECT * with aggregation is not supported")
			}
			for i, c := range blk.Global.Cols {
				blk.Output = append(blk.Output, OutputCol{
					E:    &expr.ColRef{Idx: i, Col: c},
					Name: c.Name,
				})
			}
			continue
		}
		var bound expr.Expr
		var err error
		if grouped {
			bound, err = b.bindGroupedItem(item.Expr, blk, sc)
		} else {
			bound, err = b.bindExpr(item.Expr, sc)
		}
		if err != nil {
			return err
		}
		if hasOuterRef(bound) {
			return fmt.Errorf("plan: correlated select item %s is not supported", item.Expr)
		}
		oc := OutputCol{E: bound, Name: item.Alias}
		if oc.Name == "" {
			oc.Name = defaultName(item.Expr)
			oc.NameParams = labelParams(item.Expr, oc.Name)
		}
		blk.Output = append(blk.Output, oc)
	}
	if grouped {
		// Rewrite output expressions from Global-binding + aggRef markers
		// into post-agg schema positions.
		post := blk.PostAggSchema()
		for i := range blk.Output {
			rewritten, err := b.toPostAgg(blk.Output[i].E, blk, post)
			if err != nil {
				return err
			}
			blk.Output[i].E = rewritten
		}
	}
	return nil
}

// bindGroupedItem binds a select item of an aggregating block: aggregate
// calls become aggRef markers (and their args are bound against Global).
func (b *binder) bindGroupedItem(e sqlparser.Expr, blk *Block, sc *scope) (expr.Expr, error) {
	if call, ok := e.(*sqlparser.Call); ok {
		if f, isAgg := aggFuncs[call.Name]; isAgg {
			spec := AggSpec{Func: f}
			if call.Star {
				if f != AggCount {
					return nil, fmt.Errorf("plan: %s(*) is not valid", call.Name)
				}
				spec.Func = AggCountStar
			} else {
				if len(call.Args) != 1 {
					return nil, fmt.Errorf("plan: %s takes one argument", call.Name)
				}
				arg, err := b.bindExpr(call.Args[0], sc)
				if err != nil {
					return nil, err
				}
				if hasOuterRef(arg) {
					return nil, fmt.Errorf("plan: correlated aggregate argument is not supported")
				}
				spec.Arg = arg
			}
			spec.Name = fmt.Sprintf("%s_%d", call.Name, len(blk.Aggs))
			blk.Aggs = append(blk.Aggs, spec)
			return &aggRef{idx: len(blk.Aggs) - 1, kind: spec.Kind(), name: spec.Name}, nil
		}
	}
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		op, ok := binOps[v.Op]
		if !ok {
			return nil, fmt.Errorf("plan: unknown operator %q", v.Op)
		}
		l, err := b.bindGroupedItem(v.L, blk, sc)
		if err != nil {
			return nil, err
		}
		r, err := b.bindGroupedItem(v.R, blk, sc)
		if err != nil {
			return nil, err
		}
		l, r = typeOperands(op, l, r)
		return &expr.Binary{Op: op, L: l, R: r}, nil
	default:
		return b.bindExpr(e, sc)
	}
}

// toPostAgg rewrites an output expression (bound against Global, with
// aggRef markers) into the post-aggregation schema: group-by columns first,
// then aggregate results.
func (b *binder) toPostAgg(e expr.Expr, blk *Block, post *types.Schema) (expr.Expr, error) {
	switch v := e.(type) {
	case *aggRef:
		pos := len(blk.GroupBy) + v.idx
		return &expr.ColRef{Idx: pos, Col: post.Cols[pos]}, nil
	case *expr.ColRef:
		for gi, g := range blk.GroupBy {
			if gc, ok := g.(*expr.ColRef); ok && gc.Idx == v.Idx {
				return &expr.ColRef{Idx: gi, Col: post.Cols[gi]}, nil
			}
		}
		return nil, fmt.Errorf("plan: select item column %s is neither grouped nor aggregated", v.Col.QualifiedName())
	case *expr.Const, *expr.Param:
		// A placeholder is a constant leaf: BindParams lowers it to a Const
		// before the projection above the aggregation runs.
		return e, nil
	case *expr.Binary:
		l, err := b.toPostAgg(v.L, blk, post)
		if err != nil {
			return nil, err
		}
		r, err := b.toPostAgg(v.R, blk, post)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: v.Op, L: l, R: r}, nil
	case *expr.Year:
		inner, err := b.toPostAgg(v.E, blk, post)
		if err != nil {
			return nil, err
		}
		return &expr.Year{E: inner}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported grouped select expression %T", e)
	}
}

func containsAgg(e sqlparser.Expr) bool {
	switch v := e.(type) {
	case *sqlparser.Call:
		if _, ok := aggFuncs[v.Name]; ok {
			return true
		}
		for _, a := range v.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return containsAgg(v.L) || containsAgg(v.R)
	case *sqlparser.NotExpr:
		return containsAgg(v.E)
	case *sqlparser.LikeExpr:
		return containsAgg(v.E)
	}
	return false
}

func defaultName(e sqlparser.Expr) string {
	if id, ok := e.(*sqlparser.Ident); ok {
		return id.Name
	}
	return strings.ReplaceAll(e.String(), " ", "")
}

// labelParams locates the placeholders in name, e's default name: it prints
// a copy of e with every placeholder as a NUL identifier, and the offsets
// where that copy differs from name are the placeholders' '?'s — both
// prints are the same byte for byte elsewhere, whatever a literal, a LIKE
// pattern or an identifier holds. nil when there are none, or when e holds
// a subquery (its text is not walked).
func labelParams(e sqlparser.Expr, name string) []NameParam {
	var ords []int
	marked, ok := markPlaceholders(e, &ords)
	if !ok || len(ords) == 0 {
		return nil
	}
	mname := defaultName(marked)
	if len(name) != len(mname) {
		return nil
	}
	params := make([]NameParam, 0, len(ords))
	for i := range len(name) {
		if name[i] != mname[i] {
			if len(params) == len(ords) {
				return nil
			}
			params = append(params, NameParam{At: i, Ord: ords[len(params)]})
		}
	}
	if len(params) != len(ords) {
		return nil
	}
	return params
}

// markPlaceholders copies e with each placeholder replaced by a NUL
// identifier, appending their ordinals in print order to ords.
func markPlaceholders(e sqlparser.Expr, ords *[]int) (sqlparser.Expr, bool) {
	switch v := e.(type) {
	case *sqlparser.Placeholder:
		*ords = append(*ords, v.Ord)
		return &sqlparser.Ident{Name: "\x00"}, true
	case *sqlparser.BinaryExpr:
		l, ok := markPlaceholders(v.L, ords)
		if !ok {
			return nil, false
		}
		r, ok := markPlaceholders(v.R, ords)
		return &sqlparser.BinaryExpr{Op: v.Op, L: l, R: r}, ok
	case *sqlparser.NotExpr:
		x, ok := markPlaceholders(v.E, ords)
		return &sqlparser.NotExpr{E: x}, ok
	case *sqlparser.LikeExpr:
		x, ok := markPlaceholders(v.E, ords)
		return &sqlparser.LikeExpr{E: x, Pattern: v.Pattern, Negate: v.Negate}, ok
	case *sqlparser.Call:
		c := &sqlparser.Call{Name: v.Name, Star: v.Star, Args: make([]sqlparser.Expr, len(v.Args))}
		for i, a := range v.Args {
			x, ok := markPlaceholders(a, ords)
			if !ok {
				return nil, false
			}
			c.Args[i] = x
		}
		return c, true
	case *sqlparser.SubqueryExpr:
		return nil, false
	}
	return e, true
}

// ---------------------------------------------------------------------------
// Decorrelation of scalar subqueries.

// decorrelate binds a correlated scalar subquery, converts it into a
// grouped derived relation of the enclosing block (grouped on its
// correlation attributes), adds the correlation equijoins, and returns a
// reference to the scalar result column. This is the classic magic-style
// decorrelation the paper's Figure 1 plan exhibits.
func (b *binder) decorrelate(sub *sqlparser.SelectStmt, sc *scope) (expr.Expr, error) {
	inner, err := b.bindSelect(sub, sc)
	if err != nil {
		return nil, err
	}
	if len(inner.Output) != 1 || len(inner.Aggs) != 1 || len(inner.GroupBy) != 0 {
		return nil, fmt.Errorf("plan: scalar subquery must compute exactly one aggregate")
	}

	// Extract correlation conjuncts (those containing outerRef markers).
	var corr []CorrPair
	kept := inner.Conjuncts[:0]
	for _, c := range inner.Conjuncts {
		if !hasOuterRef(c.E) {
			kept = append(kept, c)
			continue
		}
		innerCol, outerCol, ok := corrEquiPair(c.E)
		if !ok {
			return nil, fmt.Errorf("plan: unsupported correlated predicate %s (only inner = outer equality is supported)", c.E)
		}
		// Group the inner block by the correlation attribute and expose it.
		gidx := -1
		for i, g := range inner.GroupBy {
			if gc, isCol := g.(*expr.ColRef); isCol && gc.Idx == innerCol {
				gidx = i
				break
			}
		}
		if gidx == -1 {
			inner.GroupBy = append(inner.GroupBy, &expr.ColRef{Idx: innerCol, Col: inner.Global.Cols[innerCol]})
			gidx = len(inner.GroupBy) - 1
		}
		corr = append(corr, CorrPair{OuterCol: outerCol, InnerOutCol: gidx})
	}
	inner.Conjuncts = kept

	// Rebuild the inner output list: correlation group-by columns first,
	// then the scalar aggregate. The scalar expression was already bound
	// against the (previously group-free) post-agg schema [aggs...]; the
	// new layout is [corr group-by columns..., aggs...], so its aggregate
	// references shift right by the number of group-by columns added.
	post := inner.PostAggSchema()
	scalar := inner.Output[0]
	rewritten := expr.Shift(scalar.E, len(inner.GroupBy))
	inner.Output = nil
	for gi := range inner.GroupBy {
		name := post.Cols[gi].Name
		inner.Output = append(inner.Output, OutputCol{
			E:    &expr.ColRef{Idx: gi, Col: post.Cols[gi]},
			Name: name,
		})
	}
	scalarName := scalar.Name
	if scalarName == "" {
		scalarName = "scalar"
	}
	inner.Output = append(inner.Output, OutputCol{E: rewritten, Name: scalarName})
	scalarPos := len(inner.Output) - 1

	// Attach as a derived relation of the outer block. The correlation
	// pairs are recorded so the magic-sets rewriter can locate them.
	blk := sc.block
	b.nextID++
	alias := fmt.Sprintf("_sq%d", b.nextID)
	if err := b.addDerivedRel(blk, alias, inner, corr); err != nil {
		return nil, err
	}
	rel := blk.Rels[len(blk.Rels)-1]

	// Join conjuncts: outer correlation column = derived group-by column.
	for _, cp := range corr {
		dcol := rel.Offset + cp.InnerOutCol
		join := &expr.Binary{
			Op: expr.OpEq,
			L:  &expr.ColRef{Idx: cp.OuterCol, Col: blk.Global.Cols[cp.OuterCol]},
			R:  &expr.ColRef{Idx: dcol, Col: blk.Global.Cols[dcol]},
		}
		blk.AddConjunct(join)
		b.eq.union(blk.EqIDs[cp.OuterCol], blk.EqIDs[dcol])
	}

	sp := rel.Offset + scalarPos
	return &expr.ColRef{Idx: sp, Col: blk.Global.Cols[sp]}, nil
}

// corrEquiPair matches `innerCol = outerRef` (either order) and returns the
// inner global column and the outer global column.
func corrEquiPair(e expr.Expr) (innerCol, outerCol int, ok bool) {
	bin, isBin := e.(*expr.Binary)
	if !isBin || bin.Op != expr.OpEq {
		return 0, 0, false
	}
	if ic, isCol := bin.L.(*expr.ColRef); isCol {
		if or, isOut := bin.R.(*outerRef); isOut {
			return ic.Idx, or.outerCol, true
		}
	}
	if ic, isCol := bin.R.(*expr.ColRef); isCol {
		if or, isOut := bin.L.(*outerRef); isOut {
			return ic.Idx, or.outerCol, true
		}
	}
	return 0, 0, false
}
