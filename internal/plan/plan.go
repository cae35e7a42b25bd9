// Package plan turns parsed SQL into bound query blocks: the form consumed
// by the optimizer, the magic-sets rewriter, and the AIP planner.
//
// A Block is one decorrelated query block: a set of relations (base tables
// or nested blocks), a conjunct list bound against the concatenation of the
// relations' schemas ("global" column ids), output expressions, grouping,
// and aggregation. Correlated scalar subqueries are decorrelated at bind
// time into additional grouped relations joined on their correlation
// attributes — exactly the plan shape of the paper's Figure 1.
//
// The binder also computes the source-predicate graph of §IV-A: every
// attribute in the query gets an equivalence-class id (EqID), where two
// attributes share a class iff the query transitively equates them. AIP
// uses the classes to decide which operators can produce and consume AIP
// sets; crucially the classes span block boundaries, so a filter built over
// a subquery's aggregation state can prune the parent block and vice versa.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/types"
)

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions supported by the engine.
const (
	AggSum AggFunc = iota
	AggMin
	AggMax
	AggAvg
	AggCount
	AggCountStar
)

var aggNames = map[AggFunc]string{
	AggSum: "sum", AggMin: "min", AggMax: "max",
	AggAvg: "avg", AggCount: "count", AggCountStar: "count(*)",
}

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string { return aggNames[f] }

// ResultKind returns the output type of the aggregate given its input type.
func (f AggFunc) ResultKind(arg types.Kind) types.Kind {
	switch f {
	case AggCount, AggCountStar:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	case AggSum:
		if arg == types.KindInt {
			return types.KindInt
		}
		return types.KindFloat
	default: // min/max preserve the input type
		return arg
	}
}

// AggSpec is one aggregate computation: Func applied to Arg (bound against
// the block's global schema; nil for count(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string // output column name
}

// Kind returns the aggregate's output type.
func (a AggSpec) Kind() types.Kind {
	if a.Arg == nil {
		return a.Func.ResultKind(types.KindInt)
	}
	return a.Func.ResultKind(a.Arg.Kind())
}

func (a AggSpec) String() string {
	if a.Arg == nil {
		return a.Func.String()
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Arg)
}

// Rel is one relation of a block: a base table or a nested (derived /
// decorrelated) block.
type Rel struct {
	Alias  string
	Table  *catalog.Table // non-nil for base relations
	Sub    *Block         // non-nil for nested blocks
	Schema *types.Schema  // output schema, columns qualified by Alias
	Offset int            // first global column id of this relation

	// Site assigns the relation to an execution site for the distributed
	// experiments; 0 is the master node.
	Site int

	// Delayed marks the relation for the §VI-B delay injection.
	Delayed bool

	// Correlated records decorrelation provenance: this relation was built
	// from a correlated scalar subquery joined to the outer block on these
	// pairs. The magic-sets rewriter consumes this.
	Correlated []CorrPair
}

// IsBase reports whether the relation is a base-table scan.
func (r *Rel) IsBase() bool { return r.Table != nil }

// Conjunct is one WHERE conjunct bound against the block's global schema.
type Conjunct struct {
	E    expr.Expr
	Rels []int // indices of relations referenced, ascending

	// Equi join metadata, set when E is `col = col` across two relations.
	IsEqui     bool
	LCol, RCol int // global column ids
	LRel, RRel int // relation indices (LRel < RRel)
}

func (c Conjunct) String() string { return c.E.String() }

// OutputCol is one SELECT-list item: an expression over the block's global
// schema extended with aggregate result columns (see Block.AggBase).
type OutputCol struct {
	E    expr.Expr
	Name string
	// NameParams locates the placeholders a default name prints as '?', so
	// a caller that lifted literals into them can print them back.
	NameParams []NameParam
}

// NameParam is one placeholder in a default name: the byte offset of its
// '?' in Name and its ordinal.
type NameParam struct{ At, Ord int }

// Block is a bound, decorrelated query block.
type Block struct {
	Rels      []*Rel
	Global    *types.Schema // concatenation of relation schemas
	EqIDs     []int         // equivalence-class id per global column
	Conjuncts []Conjunct

	// Grouping and aggregation. GroupBy expressions are bound against
	// Global. When Aggs is non-empty the block output feeds from the
	// virtual schema [GroupBy..., Aggs...]; otherwise from Global.
	GroupBy []expr.Expr
	Aggs    []AggSpec

	// Output expressions are bound against the post-aggregation schema
	// when Aggs is non-empty (group-by columns first, then aggregates),
	// or against Global otherwise.
	Output   []OutputCol
	Distinct bool

	// NumParams is the number of `?` placeholders in the statement; set on
	// the root block only. Plans built from a block with parameters must
	// have them substituted (expr.BindParams) before execution.
	NumParams int
	// ParamKinds is each placeholder's inferred kind (expr.Param.Kind), by
	// ordinal; set on the root block only.
	ParamKinds []types.Kind
}

// PostAggSchema returns the virtual schema that Output is bound against for
// an aggregating block: group-by columns followed by aggregate results.
func (b *Block) PostAggSchema() *types.Schema {
	cols := make([]types.Column, 0, len(b.GroupBy)+len(b.Aggs))
	for i, g := range b.GroupBy {
		name := fmt.Sprintf("_g%d", i)
		if cr, ok := g.(*expr.ColRef); ok {
			name = cr.Col.Name
		}
		cols = append(cols, types.Column{Name: name, Kind: g.Kind()})
	}
	for _, a := range b.Aggs {
		cols = append(cols, types.Column{Name: a.Name, Kind: a.Kind()})
	}
	return types.NewSchema(cols...)
}

// OutputSchema returns the block's result schema.
func (b *Block) OutputSchema() *types.Schema {
	cols := make([]types.Column, len(b.Output))
	for i, o := range b.Output {
		cols[i] = types.Column{Name: o.Name, Kind: o.E.Kind()}
	}
	return types.NewSchema(cols...)
}

// RelOf returns the relation index owning global column g.
func (b *Block) RelOf(g int) int {
	for i := len(b.Rels) - 1; i >= 0; i-- {
		if g >= b.Rels[i].Offset {
			return i
		}
	}
	return -1
}

// RelsOf returns the ascending set of relation indices referenced by e.
func (b *Block) RelsOf(e expr.Expr) []int {
	seen := map[int]bool{}
	for _, c := range expr.CollectCols(e, nil) {
		seen[b.RelOf(c)] = true
	}
	out := make([]int, 0, len(seen))
	for i := range b.Rels {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}

// String renders the block structure for debugging.
func (b *Block) String() string {
	var sb strings.Builder
	b.describe(&sb, 0)
	return sb.String()
}

func (b *Block) describe(sb *strings.Builder, depth int) {
	ind := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%sBlock(distinct=%v, groupby=%d, aggs=%d)\n", ind, b.Distinct, len(b.GroupBy), len(b.Aggs))
	for _, c := range b.Conjuncts {
		fmt.Fprintf(sb, "%s  pred %s (rels %v)\n", ind, c, c.Rels)
	}
	for i, r := range b.Rels {
		if r.IsBase() {
			fmt.Fprintf(sb, "%s  rel[%d] %s -> table %s (site %d)\n", ind, i, r.Alias, r.Table.Name, r.Site)
		} else {
			fmt.Fprintf(sb, "%s  rel[%d] %s -> subblock:\n", ind, i, r.Alias)
			r.Sub.describe(sb, depth+2)
		}
	}
}

// mkConjunct builds conjunct metadata for a bound predicate.
func (b *Block) mkConjunct(e expr.Expr) Conjunct {
	c := Conjunct{E: e, Rels: b.RelsOf(e)}
	if l, r, ok := expr.EquiPair(e); ok {
		lr, rr := b.RelOf(l.Idx), b.RelOf(r.Idx)
		if lr != rr {
			c.IsEqui = true
			if lr < rr {
				c.LCol, c.RCol, c.LRel, c.RRel = l.Idx, r.Idx, lr, rr
			} else {
				c.LCol, c.RCol, c.LRel, c.RRel = r.Idx, l.Idx, rr, lr
			}
		}
	}
	return c
}

// AddConjunct appends a bound predicate with computed metadata.
func (b *Block) AddConjunct(e expr.Expr) {
	b.Conjuncts = append(b.Conjuncts, b.mkConjunct(e))
}
