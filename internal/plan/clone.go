package plan

import "repro/internal/types"

// Clone deep-copies the block structure (relations, conjuncts, outputs).
// Bound expressions are immutable and shared; slices and Rel/Block nodes
// are copied so rewriters (magic sets, the workload's delay/site tagging)
// can mutate a clone without affecting the binder's output.
func (b *Block) Clone() *Block {
	nb := &Block{
		Global:     cloneSchema(b.Global),
		EqIDs:      append([]int(nil), b.EqIDs...),
		Distinct:   b.Distinct,
		NumParams:  b.NumParams,
		ParamKinds: b.ParamKinds,
	}
	nb.GroupBy = append(nb.GroupBy, b.GroupBy...)
	nb.Aggs = append([]AggSpec(nil), b.Aggs...)
	nb.Conjuncts = append([]Conjunct(nil), b.Conjuncts...)
	for i := range nb.Conjuncts {
		nb.Conjuncts[i].Rels = append([]int(nil), b.Conjuncts[i].Rels...)
	}
	nb.Output = append([]OutputCol(nil), b.Output...)
	nb.Rels = make([]*Rel, len(b.Rels))
	for i, r := range b.Rels {
		nr := &Rel{
			Alias:      r.Alias,
			Table:      r.Table,
			Schema:     cloneSchema(r.Schema),
			Offset:     r.Offset,
			Site:       r.Site,
			Delayed:    r.Delayed,
			Correlated: append([]CorrPair(nil), r.Correlated...),
		}
		if r.Sub != nil {
			nr.Sub = r.Sub.Clone()
		}
		nb.Rels[i] = nr
	}
	return nb
}

func cloneSchema(s *types.Schema) *types.Schema {
	return types.NewSchema(append([]types.Column(nil), s.Cols...)...)
}
