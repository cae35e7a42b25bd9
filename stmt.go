package sip

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/magic"
	"repro/internal/network"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/types"
)

// enginePlan is a compiled, reusable plan template: the output of
// parse/bind/placement/rewrite/optimize for one (SQL, plan-affecting
// options) pair. It is immutable; every execution instantiates a fresh copy
// of the operator tree and injection points from it.
type enginePlan struct {
	built      *optimizer.Result
	schema     *Schema
	numParams  int
	paramKinds []types.Kind      // each placeholder's inferred kind, by ordinal
	topo       *network.Topology // non-nil when the plan ships remote scans
	// labelParams holds, per result column, the placeholders its label
	// prints as '?' (plan.OutputCol.NameParams); nil when no label has one.
	labelParams [][]plan.NameParam
}

// buildPlan runs the full front end: parse, bind, placement tagging, magic
// rewrite, and physical optimization.
func (e *Engine) buildPlan(sql string, opts Options) (*enginePlan, error) {
	blk, err := plan.BindSQL(e.cat, sql)
	if err != nil {
		return nil, err
	}
	if err := e.applyPlacement(blk, opts); err != nil {
		return nil, err
	}
	schema := blk.OutputSchema()
	numParams, paramKinds := blk.NumParams, blk.ParamKinds
	var labelParams [][]plan.NameParam
	for i, oc := range blk.Output {
		if oc.NameParams != nil {
			if labelParams == nil {
				labelParams = make([][]plan.NameParam, len(blk.Output))
			}
			labelParams[i] = oc.NameParams
		}
	}
	if opts.Strategy == Magic {
		blk = magic.Rewrite(blk)
	}
	var topo *network.Topology
	if len(opts.RemoteTables) > 0 {
		topo = opts.topology()
	}
	built, err := optimizer.Build(optimizer.Config{Topology: topo, Delay: opts.delay()}, blk)
	if err != nil {
		return nil, err
	}
	return &enginePlan{built: built, schema: schema, numParams: numParams, paramKinds: paramKinds, topo: topo,
		labelParams: labelParams}, nil
}

// plan returns the compiled template for (sql, opts), consulting the
// bounded LRU plan cache so repeated ad-hoc queries skip
// parse/bind/optimize entirely.
func (e *Engine) plan(sql string, opts Options) (*enginePlan, error) {
	if e.cache == nil {
		return e.buildPlan(sql, opts)
	}
	// A remote query with a nil Topology gets the documented default — a
	// fresh topology per call, so each query's simulated link is
	// independent. Caching the plan would pin one default Link (whose
	// busy-until state serializes transfers) across unrelated queries,
	// skewing the modeled network timings; build per call instead, as the
	// pre-cache engine did. Explicitly-shared topologies cache fine: the
	// caller opted into sharing that network.
	if len(opts.RemoteTables) > 0 && opts.Topology == nil {
		return e.buildPlan(sql, opts)
	}
	key := planKey(sql, opts, e.cat.Version())
	if p, ok := e.cache.get(key); ok {
		return p, nil
	}
	p, err := e.buildPlan(sql, opts)
	if err != nil {
		return nil, err
	}
	e.cache.put(key, p)
	return p, nil
}

// planKey fingerprints the option fields that change the compiled plan
// (placement, rewrite); the runtime-only knobs (FPR, summary kind,
// parallelism, cost-model constants, memory budget) are deliberately excluded
// so they share one cached plan. The catalog version is part of the key: a
// compiled plan snapshots table row slices and statistics at build time, so
// replacing a table via Catalog.Add must retire every plan built against
// the old contents instead of serving stale rows (the superseded entries
// age out of the LRU).
func planKey(sql string, opts Options, catVersion int64) string {
	var sb strings.Builder
	sb.WriteString(sql)
	sb.WriteByte(0)
	if opts.Strategy == Magic {
		sb.WriteString("magic")
	}
	sb.WriteByte(0)
	if len(opts.DelayedTables) > 0 {
		names := make([]string, len(opts.DelayedTables))
		for i, t := range opts.DelayedTables {
			names[i] = strings.ToLower(t)
		}
		sort.Strings(names)
		sb.WriteString(strings.Join(names, ","))
		d := opts.delay()
		fmt.Fprintf(&sb, "@%v/%d/%v/%d/%v", d.Initial, d.EveryN, d.Pause, d.BurstEveryN, d.BurstPause)
		if d.Fault != nil {
			// The fault profile is baked into the compiled scans; its full
			// value keys the plan so different chaos profiles never share.
			fmt.Fprintf(&sb, "!%+v", *d.Fault)
		}
	}
	sb.WriteByte(0)
	if len(opts.RemoteTables) > 0 {
		pairs := make([]string, 0, len(opts.RemoteTables))
		for t, site := range opts.RemoteTables {
			pairs = append(pairs, fmt.Sprintf("%s=%d", strings.ToLower(t), site))
		}
		sort.Strings(pairs)
		sb.WriteString(strings.Join(pairs, ","))
		// Topology identity: links are modeled per topology instance, so an
		// explicit topology keys by pointer (nil-Topology remote plans never
		// reach the cache; see plan).
		fmt.Fprintf(&sb, "@%p", opts.Topology)
	}
	sb.WriteByte(0)
	fmt.Fprintf(&sb, "cat%d", catVersion)
	return sb.String()
}

// applyPlacement tags relations with delay and site assignments,
// recursively through nested blocks, validating every referenced table
// name against the catalog so a typo surfaces as an error instead of a
// silently ignored option.
func (e *Engine) applyPlacement(b *plan.Block, opts Options) error {
	delayed := map[string]bool{}
	for _, t := range opts.DelayedTables {
		name := strings.ToLower(t)
		if !e.cat.Has(name) {
			return fmt.Errorf("sip: DelayedTables: unknown table %q", t)
		}
		delayed[name] = true
	}
	remote := map[string]int{}
	for t, site := range opts.RemoteTables {
		name := strings.ToLower(t)
		if !e.cat.Has(name) {
			return fmt.Errorf("sip: RemoteTables: unknown table %q", t)
		}
		if site <= 0 {
			return fmt.Errorf("sip: RemoteTables: table %q assigned to invalid site %d (sites are > 0; 0 is the master)", t, site)
		}
		remote[name] = site
	}
	var walk func(b *plan.Block)
	walk = func(b *plan.Block) {
		for _, rel := range b.Rels {
			if rel.Sub != nil {
				walk(rel.Sub)
				continue
			}
			name := strings.ToLower(rel.Table.Name)
			if delayed[name] {
				rel.Delayed = true
			}
			if site, ok := remote[name]; ok {
				rel.Site = site
			}
		}
	}
	walk(b)
	return nil
}

// Explain returns a textual description of the bound block structure.
func (e *Engine) Explain(sql string) (string, error) {
	blk, err := plan.BindSQL(e.cat, sql)
	if err != nil {
		return "", err
	}
	return blk.String(), nil
}

// Stmt is a prepared statement: the SQL was parsed, bound, placed, and
// optimized exactly once at Prepare time. Each Query/QueryStream
// instantiates a fresh copy of the compiled plan with the `?` placeholder
// arguments substituted as typed constants, so per-execution cost is the
// execution itself. A Stmt is safe for concurrent use.
type Stmt struct {
	eng  *Engine
	sql  string
	opts Options
	plan *enginePlan
}

// Prepare compiles sql once for repeated execution under default Options.
func (e *Engine) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	return e.PrepareWithOptions(ctx, sql, Options{})
}

// PrepareWithOptions compiles sql once under the given options. The
// plan-shaping options (Strategy, placement) are fixed at prepare
// time; runtime options (FPR, Summary, Parallelism, Cost, MemBudget)
// are re-read from the captured Options at every execution.
//
// A statement prepared with RemoteTables captures its network model once:
// with a nil Topology the default topology is instantiated at prepare
// time and its links (including their busy-until transfer state) are
// shared by all of the statement's executions — concurrent executions
// contend on the same simulated wire. Per-call independent links need
// per-call Query/QueryStream, which build a fresh default topology each
// time.
func (e *Engine) PrepareWithOptions(ctx context.Context, sql string, opts Options) (*Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Consult the plan cache: templates are immutable, so N connections
	// preparing the same statement share one parse/bind/optimize pass.
	p, err := e.plan(sql, opts)
	if err != nil {
		return nil, err
	}
	return &Stmt{eng: e, sql: sql, opts: opts, plan: p}, nil
}

// SQL returns the statement's source text.
func (s *Stmt) SQL() string { return s.sql }

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.plan.numParams }

// Schema returns the statement's result schema.
func (s *Stmt) Schema() *Schema { return s.plan.schema }

// Query executes the prepared plan with the given arguments and collects
// the full result (a thin wrapper draining QueryStream).
func (s *Stmt) Query(ctx context.Context, args ...Value) (*Result, error) {
	rows, err := s.QueryStream(ctx, args...)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// QueryStream executes the prepared plan with the given arguments and
// returns a streaming cursor. The number of arguments must match
// NumParams.
func (s *Stmt) QueryStream(ctx context.Context, args ...Value) (*Rows, error) {
	if len(args) != s.plan.numParams {
		return nil, fmt.Errorf("sip: statement has %d parameter(s), got %d argument(s)", s.plan.numParams, len(args))
	}
	return s.eng.start(ctx, s.sql, s.plan, s.opts, args)
}

// Close releases the statement. It is currently a no-op (plans are
// garbage-collected) and exists for database/sql-style symmetry.
func (s *Stmt) Close() error { return nil }
