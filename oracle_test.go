package sip

// The generated-query oracle. A seeded generator draws catalogs and queries
// over the engine's SQL surface; a nested-loop reference evaluator (below,
// sharing no code with internal/exec or internal/expr) computes each answer;
// and the paper's guarantee — information passing changes how much work is
// done, never the answer — is checked as properties on every case:
//
//   - each of the four strategies returns the reference rows;
//   - Parallelism 1 returns what Parallelism 4 does;
//   - exact hash-set summaries return what Bloom filters do;
//   - the streaming cursor returns what the blocking drain does;
//   - a MemBudget of a quarter of the unbounded peak returns the same rows or
//     a typed *BudgetError, never a different answer;
//   - modeled sources — a drawn subset of the tables delayed, the rest
//     unmodeled, on a coin flip seeded transient faults the retries absorb —
//     return the reference rows (oraCase.modeled);
//   - under Feed-forward, a wired scan that started after every filter it can
//     receive was published (start order) has pruned at the source: its
//     consumer has nothing left to prune;
//   - every start-order wait goes to an input with strictly fewer source
//     rows, so the waits cannot form a cycle;
//   - string filters, drawn as comparisons and as [NOT] LIKE patterns, run on
//     the scans' dictionary codes and return the reference rows; the sweep
//     counts the conjuncts sifted on codes and the bitmap probes a scan ran
//     over a whole chunk as a run: both must occur;
//   - after every query the engine is quiescent: the goroutine count is back
//     where it was, no tracked state byte is left accounted, and no spill
//     directory survives.
//
// Each catalog also answers one query of the routed fold's shape
// (oraGenFold), and the sweep counts the aggregations that folded from a
// routing scan's column vectors and those that folded a router's batches:
// both must occur. It also answers three queries of the shapes projection
// pushdown must get right (oraGenNarrow) — a non-equi join residual, columns
// read only by a later join key, only by the output or only by a residual,
// count(*) over a three-way join — and counts the join sides that emitted
// fewer columns than they received: some must.
//
// Each catalog also has a twin whose key columns a and b are drawn from one
// of the key domains of oraDomains (dense, sparse, negative minimum, a span
// just over the direct-index threshold, MaxInt64 at the top), which answers
// the domain shapes (oraGenDomain) and feeds the table leg (oraTableLeg); the
// sweep counts the join and aggregate tables that installed a direct index
// over their key's range, and the capped runs in which an aggregate
// installed one again after an eviction: both must occur.
//
// A failure names the seed, the SQL and its arguments;
// SIP_ORACLE_SEED=<seed> reruns one catalog. SIP_ORACLE_SEEDS=<n> widens the
// sweep (make test-race runs the long leg). Bugs the oracle found are pinned
// as fixed cases (TestJoinNullKeysMatchNothing).

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/filter"
	"repro/internal/types"
)

// TestJoinNullKeysMatchNothing is the oracle's first find, as a fixed case:
// the hash join matched a NULL key with a NULL key,
// though NULL = NULL is never true. It also pins the second: a finished query
// left its join and aggregation state accounted (Context.TrackedBytes).
func TestJoinNullKeysMatchNothing(t *testing.T) {
	for _, n := range []int{60, 6000} { // a single-partition join, a partitioned one
		mk := func(name string) *catalog.Table {
			rows := make([]types.Tuple, n)
			for i := range rows {
				rows[i] = types.Tuple{types.Int(int64(i % (n / 3))), types.Int(int64(i))}
				if i%4 == 0 {
					rows[i][0] = types.Null()
				}
			}
			return &catalog.Table{Name: name, Rows: rows, Schema: types.NewSchema(
				types.Column{Table: name, Name: "k", Kind: types.KindInt},
				types.Column{Table: name, Name: "v", Kind: types.KindInt})}
		}
		cat := catalog.New()
		cat.Add(mk("l"))
		cat.Add(mk("r"))
		perKey := map[int64]int{}
		for i := 0; i < n; i++ {
			if i%4 != 0 {
				perKey[int64(i%(n/3))]++
			}
		}
		want := 0
		for _, c := range perKey {
			want += c * c
		}
		eng := NewEngine(cat)
		for _, s := range AllStrategies() {
			for _, sql := range []string{`SELECT l.v, r.v FROM l, r WHERE l.k = r.k`,
				`SELECT l.k, count(*) FROM l, r WHERE l.k = r.k GROUP BY l.k`} {
				rows, err := eng.QueryStream(context.Background(), sql, Options{Strategy: s})
				if err != nil {
					t.Fatal(err)
				}
				res, err := rows.drain()
				if err != nil {
					t.Fatalf("n=%d %v %s: %v", n, s, sql, err)
				}
				got := len(res.Rows)
				if strings.Contains(sql, "GROUP BY") {
					got = 0
					for _, r := range res.Rows {
						if r[0].IsNull() {
							t.Fatalf("n=%d %v: a NULL key joined", n, s)
						}
						got += int(r[1].I)
					}
				}
				if got != want {
					t.Fatalf("n=%d %v %s: %d matches, want %d", n, s, sql, got, want)
				}
				if b := rows.ectx.TrackedBytes(); b != 0 {
					t.Fatalf("n=%d %v %s: %d state bytes still accounted", n, s, sql, b)
				}
			}
		}
	}
}

// oraQueriesPerSeed is how many queries each generated catalog answers.
const oraQueriesPerSeed = 12

func TestGeneratedQueryOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if s := os.Getenv("SIP_ORACLE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SIP_ORACLE_SEEDS=%q: %v", s, err)
		}
		seeds = seeds[:0]
		for i := 1; i <= n; i++ {
			seeds = append(seeds, int64(i))
		}
	}
	if s := os.Getenv("SIP_ORACLE_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIP_ORACLE_SEED=%q: %v", s, err)
		}
		seeds = []int64{n}
	}
	spill := t.TempDir()
	t.Setenv("TMPDIR", spill) // the engine's spill directories land here
	var reach oraReach
	for _, seed := range seeds {
		oraRunSeed(t, seed, spill, &reach)
	}
	t.Logf("aggregations folded from a routing scan: %d, from a router: %d; narrowed join sides: %d; scans that waited for their join sibling: %d; tables that installed a direct index: %d, again after an eviction: %d; bitmap-filtered inputs compared with hash sets: %d; bitmaps replayed through the tuple probe: %d; router-fed join and DISTINCT inputs keyed as words: %d, as bytes: %d; modeled runs mixing delayed and unmodeled tables: %d; conjuncts sifted on dictionary codes: %d; bitmap probes run over a whole chunk: %d",
		reach.routed, reach.router, reach.narrowed, reach.waited, reach.direct, reach.reinstalled, reach.bitmaps, reach.replayed, reach.words, reach.bytes, reach.mixed, reach.coded, reach.runs)
	if len(seeds) > 1 && (reach.routed == 0 || reach.router == 0 || reach.narrowed == 0 || reach.waited == 0 ||
		reach.direct == 0 || reach.reinstalled == 0 || reach.bitmaps == 0 || reach.replayed == 0 || reach.words == 0 || reach.bytes == 0 || reach.mixed == 0 ||
		reach.coded == 0 || reach.runs == 0) {
		t.Fatalf("aggregations folded from a routing scan: %d, from a router: %d, narrowed join sides: %d, sibling waits: %d, direct indexes: %d, reinstalled after an eviction: %d, bitmap inputs compared: %d, bitmaps replayed: %d, router inputs keyed as words: %d, as bytes: %d, mixed modeled runs: %d, dictionary-coded conjuncts: %d, run-mode bitmap probes: %d; the sweep must reach all thirteen",
			reach.routed, reach.router, reach.narrowed, reach.waited, reach.direct, reach.reinstalled, reach.bitmaps, reach.replayed, reach.words, reach.bytes, reach.mixed, reach.coded, reach.runs)
	}
}

// oraReach counts what the checked cases reached: aggregations by where their
// fold read its input — a routing scan (by row id, from the column vectors)
// or a router goroutine's batches — join sides that emitted fewer columns
// than they received, scans that waited for their join sibling (Baseline
// runs, so no filter wait is counted), partition key tables that installed
// a direct index, capped runs in which an aggregate table installed one
// again after an eviction dropped it, inputs whose bitmap filters were
// compared with the hash-set run (bitmapExact), bitmaps replayed over
// their scan's rows through the tuple probe (bitmapReplay), and join and
// DISTINCT inputs a router fed whose batches keyed as integer words, those
// where a batch fell back to canonical bytes, modeled runs that delayed
// some of their tables and left others unmodeled, pushed conjuncts a scan
// sifted on dictionary codes (Baseline runs), and chunks a scan probed its
// consumer's bitmap over as a run (every strategy).
type oraReach struct {
	routed, router, narrowed, waited, direct, reinstalled, bitmaps, replayed, words, bytes, mixed int
	coded, runs                                                                                   int
}

// oraRunSeed generates one catalog and checks oraQueriesPerSeed queries over
// it, then one of the routed fold's shape and three of the narrowing shapes,
// each drawn from a stream of its own so the first oraQueriesPerSeed stay
// what they were.
func oraRunSeed(t *testing.T, seed int64, spill string, reach *oraReach) {
	rng := rand.New(rand.NewSource(seed))
	oc := oraGenCatalog(rng)
	env := &oraEnv{t: t, eng: NewEngine(oc.cat), spill: spill, reach: reach}
	check := func(idx int, q *oraQuery, want []types.Tuple) {
		sql, args := q.render()
		c := &oraCase{env: env, seed: seed, idx: idx, sql: sql, args: args, tables: q.tableNames(), want: oraCanon(want)}
		c.check(rng)
	}
	for i := 0; i < oraQueriesPerSeed; i++ {
		q, want := oraAnswerable(rng, func() *oraQuery { return oraGenQuery(rng, oc) })
		check(i, q, want)
	}
	q := oraGenFold(rand.New(rand.NewSource(^seed)), oc)
	want, _ := q.eval() // one table: always within the work bounds
	check(oraQueriesPerSeed, q, want)
	nr := rand.New(rand.NewSource(-seed))
	for shape := 0; shape < 3; shape++ {
		q, want := oraAnswerable(nr, func() *oraQuery { return oraGenNarrow(nr, oc, shape) })
		check(oraQueriesPerSeed+1+shape, q, want)
	}
	oraRunDomain(t, seed, spill, reach)
}

// oraDomains are the key domains of the domain leg: column a's (and b's)
// draws from [0, dom) map to dom values that are consecutive, spread a
// million apart, consecutive across zero, spread over a span one past the
// direct-index threshold of a table holding the whole domain, or consecutive
// up to MaxInt64.
var oraDomains = []string{"dense", "sparse", "negative", "over", "maxint"}

// oraDomainMap returns the map of a domain kind from draws in [0, dom).
func oraDomainMap(kind string, dom int) func(int64) int64 {
	d := int64(dom)
	switch kind {
	case "sparse":
		return func(v int64) int64 { return v*1_000_003 + 17 }
	case "negative":
		return func(v int64) int64 { return v - d/2 - 3 }
	case "over":
		// The install rule is 4 × span ≤ MemSize: the span is one past what a
		// table of the dom keys, inserted as one batch, pays for.
		words, hs := make([]int64, dom), make([]uint64, dom)
		for i := range words {
			words[i] = int64(i)
			hs[i] = types.HashIntKey(words[i])
		}
		var kt types.KeyTable
		kt.InsertWords(hs, words, 1, make([]int32, dom), make([]bool, dom))
		span := int64(kt.MemSize()/4) + 1
		return func(v int64) int64 { return v * (span - 1) / max(d-1, 1) }
	case "maxint":
		return func(v int64) int64 { return math.MaxInt64 - (d - 1) + v }
	}
	return func(v int64) int64 { return v }
}

// oraRunDomain checks one catalog of the domain leg: a catalog drawn from a
// stream of its own with a and b mapped through the seed's domain, three
// domain shapes under every property, the routed fold again at P=1 under a
// budget that makes it evict, and the table leg.
func oraRunDomain(t *testing.T, seed int64, spill string, reach *oraReach) {
	rng := rand.New(rand.NewSource(seed ^ 0x0d0a1))
	kind := oraDomains[seed%int64(len(oraDomains))]
	oc := oraGenCatalog(rng)
	m := oraDomainMap(kind, oc.dom)
	for _, tbl := range oc.tables {
		for _, r := range tbl.Rows {
			r[oraA].I = m(r[oraA].I)
			if !r[oraB].IsNull() {
				r[oraB].I = m(r[oraB].I)
			}
		}
	}
	env := &oraEnv{t: t, eng: NewEngine(oc.cat), spill: spill, reach: reach}
	for shape := 0; shape < 3; shape++ {
		q, want := oraAnswerable(rng, func() *oraQuery { return oraGenDomain(rng, oc, shape) })
		sql, args := q.render()
		c := &oraCase{env: env, seed: seed, idx: 100 + shape, sql: sql + " -- " + kind, args: args, tables: q.tableNames(), want: oraCanon(want)}
		c.check(rng)
		if shape != 1 {
			continue
		}
		// The fold evicts under a tenth of its peak and folds on into a
		// fresh table, which installs its index again once it pays.
		peak := c.run("Baseline/P=1", Options{Strategy: Baseline, Parallelism: 1}, false).res.PeakMemBytes
		label := fmt.Sprintf("Baseline/P=1/budget=%d", peak/10)
		r := c.run(label, Options{Strategy: Baseline, Parallelism: 1, MemBudget: max(peak/10, 1)}, false)
		var be *BudgetError
		if !errors.As(r.err, &be) {
			c.same(label, r, c.want)
			reach.reinstalled += r.reach.reinstalled
		}
	}
	oraTableLeg(t, seed, kind, oc.tables[0])
}

// oraGenDomain draws the shapes whose key is column a: (0) a join on a, or on
// a against the NULL-holding b, grouped by the key; (1) the routed fold,
// GROUP BY a over one table; (2) a join on a emitting both ids. Only exact
// aggregates are drawn — count, min and max of the key, sum of the DECIMAL x,
// avg of the id — since a sum of MaxInt64-scale keys in floats depends on
// its order.
func oraGenDomain(rng *rand.Rand, oc *oraCatalog, shape int) *oraQuery {
	q := &oraQuery{oc: oc}
	perm := rng.Perm(len(oc.tables))
	q.rels = append(q.rels, oraRel{table: perm[0]})
	if shape != 1 {
		q.rels = append(q.rels, oraRel{table: perm[1]})
		rk := oraA
		if rng.Intn(3) == 0 {
			rk = oraB
		}
		q.joins = append(q.joins, oraJoin{oraRef{0, oraA}, oraRef{1, rk}})
	}
	ref := func(rel, col int) *oraExpr { return &oraExpr{ref: &oraRef{rel, col}} }
	if shape == 2 {
		q.items = append(q.items, oraItem{e: ref(0, oraID)}, oraItem{e: ref(1, oraID)})
		return q
	}
	q.grouped = true
	q.group = append(q.group, oraRef{0, oraA})
	last := len(q.rels) - 1
	q.items = append(q.items, oraItem{e: ref(0, oraA)}, oraItem{agg: "count*"},
		oraItem{agg: []string{"min", "max"}[rng.Intn(2)], arg: ref(last, oraA)},
		oraItem{agg: "sum", arg: ref(last, oraX)}, oraItem{agg: "avg", arg: ref(0, oraID)})
	return q
}

// oraTableLeg is the direct index's rule on the byte path, which no query
// reaches: a table is filled by one input, so the table a routing scan's
// words fill never receives a key of another tag. A table with the range of
// tbl's column a and a hash-only twin take the same calls — column a's words
// in routing-scan batches, then the FLOAT- and STRING-tagged twins of every
// domain value's encoding as bytes, then the words again and column b's —
// and must resolve every lane alike.
func oraTableLeg(t *testing.T, seed int64, kind string, tbl *catalog.Table) {
	lo, hi, ok := tbl.IntRange(oraA)
	vec, _ := tbl.IntVec(oraA)
	if !ok {
		t.Fatalf("oracle seed %d (%s): column a has no range", seed, kind)
	}
	var dense, hash types.KeyTable
	words := func(ws []int64) {
		for start := 0; start < len(ws); start += 1024 {
			w := ws[start:min(start+1024, len(ws))]
			hs := make([]uint64, len(w))
			for i, v := range w {
				hs[i] = types.HashIntKey(v)
			}
			di, hi2 := make([]int32, len(w)), make([]int32, len(w))
			da, ha := make([]bool, len(w)), make([]bool, len(w))
			dense.Range(lo, hi)
			dense.InsertWords(hs, w, 1, di, da)
			hash.InsertWords(hs, w, 1, hi2, ha)
			for i := range w {
				if di[i] != hi2[i] || da[i] != ha[i] {
					t.Fatalf("oracle seed %d table leg (%s, [%d, %d], direct %v): word %d is %d/%v, hash-only %d/%v",
						seed, kind, lo, hi, dense.Direct(), w[i], di[i], da[i], hi2[i], ha[i])
				}
			}
		}
	}
	words(vec[:len(vec)/2])
	var keys []byte
	offs := []int32{0}
	var hs []uint64
	for _, v := range vec {
		for _, tag := range []byte{0x02, 0x03} {
			b := types.AppendIntKey(nil, v)
			b[0] = tag
			keys = append(keys, b...)
			offs = append(offs, int32(len(keys)))
			hs = append(hs, types.Hash64(b, 0))
		}
	}
	di, hi2 := make([]int32, len(hs)), make([]int32, len(hs))
	da, ha := make([]bool, len(hs)), make([]bool, len(hs))
	dense.InsertBatch(hs, keys, offs, di, da)
	hash.InsertBatch(hs, keys, offs, hi2, ha)
	if !slices.Equal(di, hi2) || !slices.Equal(da, ha) {
		t.Fatalf("oracle seed %d table leg (%s): byte keys of other tags resolved apart", seed, kind)
	}
	words(vec)
	var bs []int64
	for _, r := range tbl.Rows {
		if !r[oraB].IsNull() {
			bs = append(bs, r[oraB].I)
		}
	}
	words(bs)
}

// ---------------------------------------------------------------------------
// Catalog.

// Every generated table has the same six columns: a unique id, an INT key a
// (no NULLs: it has a column vector, so scans route on it), an INT key b
// holding NULLs (no vector: the router path), a DATE, a DECIMAL (multiples of
// 1/4, so every sum is exact in any order) and a STRING holding NULLs.
const (
	oraID = iota
	oraA
	oraB
	oraD
	oraX
	oraS
	oraNumCols
)

var (
	oraColNames = [oraNumCols]string{"id", "a", "b", "d", "x", "s"}
	oraColKinds = [oraNumCols]types.Kind{types.KindInt, types.KindInt, types.KindInt,
		types.KindDate, types.KindFloat, types.KindString}
)

type oraCatalog struct {
	cat    *catalog.Catalog
	tables []*catalog.Table
	dom    int   // a and b are drawn from [0, dom)
	day0   int64 // d is drawn from [day0, day0+days)
	days   int
	xDom   int // x is drawn from {k/4 : 0 ≤ k < 4·xDom}
	sDom   int // s is drawn from s000 … s<sDom-1>
}

// oraTableSize draws a cardinality from four classes, so sizes fall on both
// sides of the join reservation floor (exec's joinFloorRows, 4096 rows) and
// of the start-order ratio (8×) against each other.
func oraTableSize(rng *rand.Rand, class int) int {
	switch class {
	case 0:
		return 5 + rng.Intn(60)
	case 1:
		return 100 + rng.Intn(400)
	case 2:
		return 600 + rng.Intn(2000)
	default:
		return 4097 + rng.Intn(3000)
	}
}

func oraGenCatalog(rng *rand.Rand) *oraCatalog {
	oc := &oraCatalog{
		cat:  catalog.New(),
		dom:  []int{20, 60, 200, 800}[rng.Intn(4)],
		day0: types.MustDate("1995-01-01").I,
		days: 30 + rng.Intn(90),
		xDom: 20 + rng.Intn(80),
		sDom: 8 + rng.Intn(40),
	}
	n := 4 + rng.Intn(2)
	for ti := 0; ti < n; ti++ {
		class := rng.Intn(4)
		switch ti { // at least one large and one small table
		case 0:
			class = 3
		case 1:
			class = rng.Intn(2)
		}
		rows := make([]types.Tuple, oraTableSize(rng, class))
		ids := rng.Perm(len(rows))
		nullB, nullS := 1+rng.Intn(12), 1+rng.Intn(20) // one row in nullB has b NULL
		for i := range rows {
			r := make(types.Tuple, oraNumCols)
			r[oraID] = types.Int(int64(ids[i]))
			r[oraA] = types.Int(int64(rng.Intn(oc.dom)))
			if rng.Intn(nullB) == 0 {
				r[oraB] = types.Null()
			} else {
				r[oraB] = types.Int(int64(rng.Intn(oc.dom)))
			}
			r[oraD] = types.Date(oc.day0 + int64(rng.Intn(oc.days)))
			r[oraX] = types.Float(float64(rng.Intn(4*oc.xDom)) / 4)
			if rng.Intn(nullS) == 0 {
				r[oraS] = types.Null()
			} else {
				r[oraS] = types.Str(fmt.Sprintf("s%03d", rng.Intn(oc.sDom)))
			}
			rows[i] = r
		}
		name := fmt.Sprintf("t%d", ti)
		cols := make([]types.Column, oraNumCols)
		for c := range cols {
			cols[c] = types.Column{Table: name, Name: oraColNames[c], Kind: oraColKinds[c]}
		}
		tbl := &catalog.Table{Name: name, Schema: types.NewSchema(cols...), Rows: rows, PrimaryKey: []string{"id"}}
		tbl.SetDistinct("a", int64(oc.dom))
		tbl.SetDistinct("b", int64(oc.dom))
		tbl.SetDistinct("d", int64(oc.days))
		tbl.SetDistinct("x", int64(4*oc.xDom))
		tbl.SetDistinct("s", int64(oc.sDom))
		oc.cat.Add(tbl)
		oc.tables = append(oc.tables, tbl)
	}
	return oc
}

// ---------------------------------------------------------------------------
// Queries.

// oraRef names a column: rel is the position in the FROM list, col the
// column within that relation (0 for an IN-subquery relation's only column).
type oraRef struct{ rel, col int }

// oraConst is a constant: a literal when sql is non-empty, else a `?`
// argument (NULL, NaN and ±Inf have no literal syntax).
type oraConst struct {
	v   types.Value
	sql string
}

// oraCmp is a column ⊕ constant filter.
type oraCmp struct {
	col oraRef
	op  string
	c   oraConst
}

// oraJoin is one equijoin conjunct.
type oraJoin struct{ l, r oraRef }

// oraRel is a FROM entry: a base table, or the IN-subquery shape — `x IN
// (SELECT c FROM t WHERE …)` — spelled as a DISTINCT derived table joined on
// its one column (the parser has no IN).
type oraRel struct {
	table int
	in    *oraIn
}

type oraIn struct {
	table, col int
	where      []oraCmp // over the inner table (rel 0)
}

// oraScalar is a correlated scalar subquery conjunct:
//
//	lhs op (SELECT agg(tK.arg) FROM tK WHERE tK.corr = outer AND where…)
type oraScalar struct {
	lhs, outer       oraRef
	op, agg          string
	table, arg, corr int
	where            []oraCmp // over the inner table (rel 0)
	memo             map[string]types.Value
	innerRows        []types.Tuple
}

// oraExpr is a column, a constant, or +, -, * over two expressions.
type oraExpr struct {
	ref  *oraRef
	c    *oraConst
	op   byte
	l, r *oraExpr
}

// oraItem is a select item: a plain expression, or agg(arg) optionally
// followed by `post` applied to the aggregate (sum(x) * 2).
type oraItem struct {
	e      *oraExpr
	agg    string // "", count*, count, sum, min, max, avg
	arg    *oraExpr
	postOp byte
	post   *oraConst
}

// oraTheta is a non-equi conjunct across two relations: a join residual.
type oraTheta struct {
	l, r oraRef
	op   string
}

type oraQuery struct {
	oc       *oraCatalog
	rels     []oraRel
	joins    []oraJoin
	thetas   []oraTheta
	where    []oraCmp
	scalar   *oraScalar
	grouped  bool
	group    []oraRef
	items    []oraItem
	distinct bool
}

// tableNames returns the base tables q reads, its subqueries' included.
func (q *oraQuery) tableNames() []string {
	var names []string
	add := func(ti int) {
		if n := q.oc.tables[ti].Name; !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	for _, r := range q.rels {
		if r.in != nil {
			add(r.in.table)
		} else {
			add(r.table)
		}
	}
	if q.scalar != nil {
		add(q.scalar.table)
	}
	return names
}

// kind returns a column's declared kind.
func (q *oraQuery) kind(r oraRef) types.Kind {
	if in := q.rels[r.rel].in; in != nil {
		return oraColKinds[in.col]
	}
	return oraColKinds[r.col]
}

// table returns the base table a column's values come from.
func (q *oraQuery) table(r oraRef) (*catalog.Table, int) {
	if in := q.rels[r.rel].in; in != nil {
		return q.oc.tables[in.table], in.col
	}
	return q.oc.tables[q.rels[r.rel].table], r.col
}

func oraNumeric(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }

// oraKindOf is the static kind of an expression, the rule the binder infers.
func (q *oraQuery) kindOf(e *oraExpr) types.Kind {
	switch {
	case e.ref != nil:
		return q.kind(*e.ref)
	case e.c != nil:
		return e.c.v.K
	case q.kindOf(e.l) == types.KindInt && q.kindOf(e.r) == types.KindInt:
		return types.KindInt
	default:
		return types.KindFloat
	}
}

// oraAnswerable draws queries until one's reference answer stays within the
// nested-loop evaluator's work budget; three in four empty answers are
// redrawn too (they check little).
func oraAnswerable(rng *rand.Rand, gen func() *oraQuery) (*oraQuery, []types.Tuple) {
	for {
		q := gen()
		if rows, ok := q.eval(); ok && (len(rows) > 0 || rng.Intn(4) == 0) {
			return q, rows
		}
	}
}

// oraJoinPairs lists the column pairs an equijoin may use between two base
// tables: same-kind keys of every kind, the unique id, the NULL-holding b, and
// the cross-kind INT = DECIMAL.
var oraJoinPairs = [][2]int{
	{oraA, oraA}, {oraA, oraID}, {oraID, oraA}, {oraB, oraB}, {oraB, oraA}, {oraA, oraB},
	{oraD, oraD}, {oraX, oraX}, {oraA, oraX}, {oraX, oraA}, {oraS, oraS}, {oraB, oraID},
}

func oraGenQuery(rng *rand.Rand, oc *oraCatalog) *oraQuery {
	q := &oraQuery{oc: oc}
	tables := rng.Perm(len(oc.tables))
	nrel := 1
	if rng.Intn(4) > 0 {
		nrel = 2 + rng.Intn(3)
	}
	nbase := nrel
	if nrel > 1 && rng.Intn(6) == 0 {
		nbase-- // the last relation is the IN-subquery shape
	}
	for i := 0; i < nbase; i++ {
		q.rels = append(q.rels, oraRel{table: tables[i%len(tables)]})
	}
	// Equijoins: a spanning tree, some edges on two columns, rarely a cycle.
	for i := 1; i < nbase; i++ {
		j := rng.Intn(i)
		pairs := 1 + min(rng.Intn(5)/4, 1)
		for _, k := range rng.Perm(len(oraJoinPairs))[:pairs] {
			p := oraJoinPairs[k]
			q.joins = append(q.joins, oraJoin{oraRef{j, p[0]}, oraRef{i, p[1]}})
		}
	}
	if nbase >= 3 && rng.Intn(10) == 0 {
		p := oraJoinPairs[rng.Intn(len(oraJoinPairs))]
		q.joins = append(q.joins, oraJoin{oraRef{0, p[0]}, oraRef{nbase - 1, p[1]}})
	}
	if nbase < nrel {
		col := []int{oraA, oraB, oraD, oraX, oraS}[rng.Intn(5)]
		in := &oraIn{table: rng.Intn(len(oc.tables)), col: col}
		for n := rng.Intn(3); n > 0; n-- {
			in.where = append(in.where, q.innerCmp(rng, in.table))
		}
		q.rels = append(q.rels, oraRel{in: in})
		outer := col
		if col == oraA && rng.Intn(2) == 0 {
			outer = oraB
		}
		q.joins = append(q.joins, oraJoin{oraRef{rng.Intn(nbase), outer}, oraRef{nbase, 0}})
	}
	// Column ⊕ constant filters.
	nf := rng.Intn(4)
	if nrel == 1 {
		nf = rng.Intn(3)
	}
	for ; nf > 0; nf-- {
		q.where = append(q.where, q.genCmp(rng, q.randRef(rng)))
	}
	// A correlated scalar subquery over a table the outer block does not read.
	if rng.Intn(8) == 0 && nbase < len(oc.tables) {
		q.scalar = q.genScalar(rng, tables[nbase])
	}
	// The select list: plain (with arithmetic), DISTINCT, or aggregate.
	switch r := rng.Intn(100); {
	case r < 40:
		arith := nrel > 1 || rng.Intn(2) == 0
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if arith && rng.Intn(3) == 0 {
				q.items = append(q.items, oraItem{e: q.genArith(rng)})
			} else {
				ref := q.randRef(rng)
				q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}})
			}
		}
	case r < 55:
		q.distinct = true
		for n := 1 + rng.Intn(3); n > 0; n-- {
			ref := q.randRef(rng)
			q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}})
		}
	default:
		q.grouped = true
		for n := rng.Intn(3); n > 0; n-- {
			ref := q.randRef(rng)
			if !slices.Contains(q.group, ref) {
				q.group = append(q.group, ref)
				q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}})
			}
		}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			q.items = append(q.items, q.genAgg(rng))
		}
	}
	return q
}

// oraGenFold draws the routed fold's shape: a single-table GROUP BY on a
// vector-backed INT or DATE column (or both), whose scan routes for the
// aggregation, with plain-column aggregates that include min and max of the
// STRING and of the DATE column and avg of an INT column (a, id: vectors; b:
// NULLs, so the fold reads the rows), plus a few drawn as anywhere else.
func oraGenFold(rng *rand.Rand, oc *oraCatalog) *oraQuery {
	q := &oraQuery{oc: oc, rels: []oraRel{{table: 0}}, grouped: true}
	if rng.Intn(3) == 0 {
		q.rels[0].table = rng.Intn(len(oc.tables))
	}
	group := []int{oraA, oraD}
	rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
	for _, c := range group[:1+rng.Intn(2)] {
		ref := oraRef{0, c}
		q.group = append(q.group, ref)
		q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}})
	}
	arg := func(c int) *oraExpr { return &oraExpr{ref: &oraRef{0, c}} }
	q.items = append(q.items,
		oraItem{agg: []string{"min", "max"}[rng.Intn(2)], arg: arg(oraS)},
		oraItem{agg: []string{"min", "max"}[rng.Intn(2)], arg: arg(oraD)},
		oraItem{agg: "avg", arg: arg([]int{oraA, oraB, oraID}[rng.Intn(3)])})
	for n := rng.Intn(3); n > 0; n-- {
		q.items = append(q.items, q.genAgg(rng))
	}
	for n := rng.Intn(2); n > 0; n-- {
		q.where = append(q.where, q.genCmp(rng, q.randRef(rng)))
	}
	return q
}

// oraThetaPairs lists the column pairs a non-equi conjunct may compare: one
// kind class each, the cross-kind INT < DECIMAL and the NULL-holding b
// included.
var oraThetaPairs = [][2]int{
	{oraA, oraA}, {oraX, oraX}, {oraA, oraX}, {oraX, oraB}, {oraID, oraB}, {oraD, oraD}, {oraS, oraS},
}

// oraGenNarrow draws the shapes projection pushdown must get right: a chain
// t ⋈ u ⋈ v whose second join reads a column of u the first does not, so
// some plan reads it only as a later join key, and, by shape, (0) a non-equi
// conjunct between t and v — a residual of whichever join meets both, whose
// columns nothing else reads — under one plain output column; (1) a plain
// column and an arithmetic expression of one end table, read only by the
// output; (2) count(*) alone, which needs no payload column at all.
func oraGenNarrow(rng *rand.Rand, oc *oraCatalog, shape int) *oraQuery {
	q := &oraQuery{oc: oc}
	for _, t := range rng.Perm(len(oc.tables))[:3] {
		q.rels = append(q.rels, oraRel{table: t})
	}
	p1 := oraJoinPairs[rng.Intn(len(oraJoinPairs))]
	p2 := oraJoinPairs[rng.Intn(len(oraJoinPairs))]
	for p2[0] == p1[1] {
		p2 = oraJoinPairs[rng.Intn(len(oraJoinPairs))]
	}
	q.joins = append(q.joins, oraJoin{oraRef{0, p1[0]}, oraRef{1, p1[1]}}, oraJoin{oraRef{1, p2[0]}, oraRef{2, p2[1]}})
	switch shape {
	case 0:
		th := oraThetaPairs[rng.Intn(len(oraThetaPairs))]
		if rng.Intn(2) == 0 {
			th[0], th[1] = th[1], th[0]
		}
		op := []string{"<", "<=", ">", ">=", "<>"}[rng.Intn(5)]
		q.thetas = append(q.thetas, oraTheta{oraRef{0, th[0]}, oraRef{2, th[1]}, op})
		ref := q.randRef(rng)
		q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}})
	case 1:
		end := []int{0, 2}[rng.Intn(2)]
		ref := oraRef{end, rng.Intn(oraNumCols)}
		l, r := oraRef{end, oraA}, oraRef{end, oraX}
		q.items = append(q.items, oraItem{e: &oraExpr{ref: &ref}},
			oraItem{e: &oraExpr{op: '*', l: &oraExpr{ref: &l}, r: &oraExpr{ref: &r}}})
	default:
		q.grouped = true
		q.items = append(q.items, oraItem{agg: "count*"})
	}
	if rng.Intn(2) == 0 {
		q.where = append(q.where, q.genCmp(rng, q.randRef(rng)))
	}
	return q
}

// randRef picks a column of a random relation.
func (q *oraQuery) randRef(rng *rand.Rand) oraRef {
	rel := rng.Intn(len(q.rels))
	if q.rels[rel].in != nil {
		return oraRef{rel, 0}
	}
	return oraRef{rel, rng.Intn(oraNumCols)}
}

// numericRef picks an INT or DECIMAL column, or ok=false when none exists.
func (q *oraQuery) numericRef(rng *rand.Rand) (oraRef, bool) {
	for try := 0; try < 20; try++ {
		if r := q.randRef(rng); oraNumeric(q.kind(r)) {
			return r, true
		}
	}
	return oraRef{}, false
}

// genCmp draws a filter on col of the outer block.
func (q *oraQuery) genCmp(rng *rand.Rand, col oraRef) oraCmp {
	tbl, c := q.table(col)
	return q.cmpOn(rng, col, tbl, c)
}

// innerCmp draws a filter on a random column of a subquery's only table.
func (q *oraQuery) innerCmp(rng *rand.Rand, table int) oraCmp {
	c := rng.Intn(oraNumCols)
	return q.cmpOn(rng, oraRef{0, c}, q.oc.tables[table], c)
}

// cmpOn draws an operator and a constant for col, whose values are column c
// of tbl. Constants are drawn from the column's data most of the time, so =
// and < hit real values; a few are NULL, NaN, ±Inf or of the other numeric
// kind.
func (q *oraQuery) cmpOn(rng *rand.Rand, col oraRef, tbl *catalog.Table, c int) oraCmp {
	op := []string{"=", "<>", "<", "<=", ">", ">=", "<", "<="}[rng.Intn(8)]
	v := tbl.Rows[rng.Intn(len(tbl.Rows))][c]
	kind := oraColKinds[c]
	if v.IsNull() {
		v = types.Value{K: kind}
		switch kind {
		case types.KindString:
			v.S = fmt.Sprintf("s%03d", rng.Intn(q.oc.sDom))
		case types.KindFloat:
			v.F = float64(rng.Intn(q.oc.xDom))
		default:
			v.I = int64(rng.Intn(q.oc.dom))
		}
	}
	special := []types.Value{types.Null(), types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1))}
	r := rng.Intn(100)
	switch kind {
	case types.KindInt:
		switch {
		case r < 8:
			return oraCmp{col, op, oraConst{v: special[rng.Intn(4)]}}
		case r < 22: // cross-kind: INT column, DECIMAL constant
			f := float64(v.I) + 0.5
			return oraCmp{col, op, oraConst{types.Float(f), strconv.FormatFloat(f, 'f', -1, 64)}}
		}
		return oraCmp{col, op, oraConst{v, strconv.FormatInt(v.I, 10)}}
	case types.KindFloat:
		switch {
		case r < 8:
			return oraCmp{col, op, oraConst{v: special[rng.Intn(4)]}}
		case r < 22 && v.F == math.Trunc(v.F): // cross-kind: DECIMAL column, INT constant
			return oraCmp{col, op, oraConst{types.Int(int64(v.F)), strconv.FormatInt(int64(v.F), 10)}}
		}
		return oraCmp{col, op, oraFloatLit(v.F)}
	case types.KindDate:
		if r < 5 {
			return oraCmp{col, op, oraConst{v: types.Null()}}
		}
		return oraCmp{col, op, oraConst{v, "'" + v.String() + "'"}}
	default:
		if r < 5 {
			return oraCmp{col, op, oraConst{v: types.Null()}}
		}
		if r < 30 { // [NOT] LIKE a pattern cut from the value, picked by r
			pat := [...]string{v.S, v.S[:2] + "%", "%" + v.S[len(v.S)-1:], "%" + v.S[1:3] + "%",
				"s_" + v.S[2:], "%", "", "%_" + v.S[len(v.S)-1:]}[r%8]
			op = [...]string{"LIKE", "NOT LIKE"}[r/8%2]
			return oraCmp{col, op, oraConst{types.Str(pat), "'" + pat + "'"}}
		}
		return oraCmp{col, op, oraConst{v, "'" + v.S + "'"}}
	}
}

// oraFloatLit is a DECIMAL literal (the lexer reads a number as DECIMAL only
// when it has a dot).
func oraFloatLit(f float64) oraConst {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return oraConst{types.Float(f), s}
}

// genArith draws col ⊕ const or col ⊕ col over numeric columns (NULLs of b
// propagate; a constant may change the result kind).
func (q *oraQuery) genArith(rng *rand.Rand) *oraExpr {
	l, ok := q.numericRef(rng)
	if !ok {
		r := q.randRef(rng)
		return &oraExpr{ref: &r}
	}
	e := &oraExpr{op: "+-*"[rng.Intn(3)], l: &oraExpr{ref: &l}}
	if r, ok := q.numericRef(rng); ok && rng.Intn(2) == 0 {
		e.r = &oraExpr{ref: &r}
	} else if rng.Intn(2) == 0 {
		n := int64(1 + rng.Intn(5))
		e.r = &oraExpr{c: &oraConst{types.Int(n), strconv.FormatInt(n, 10)}}
	} else {
		c := oraFloatLit([]float64{0.5, 0.25, 2, 1.5}[rng.Intn(4)])
		e.r = &oraExpr{c: &c}
	}
	return e
}

func (q *oraQuery) genAgg(rng *rand.Rand) oraItem {
	switch rng.Intn(7) {
	case 0:
		return oraItem{agg: "count*"}
	case 1:
		r := q.randRef(rng)
		return oraItem{agg: "count", arg: &oraExpr{ref: &r}}
	case 2, 3:
		r := q.randRef(rng)
		return oraItem{agg: []string{"min", "max"}[rng.Intn(2)], arg: &oraExpr{ref: &r}}
	case 4:
		if r, ok := q.numericRef(rng); ok {
			return oraItem{agg: "avg", arg: &oraExpr{ref: &r}}
		}
		return oraItem{agg: "count*"}
	default:
		it := oraItem{agg: "sum", arg: q.genArith(rng)}
		if rng.Intn(2) == 0 {
			if r, ok := q.numericRef(rng); ok {
				it.arg = &oraExpr{ref: &r}
			}
		}
		if !oraNumeric(q.kindOf(it.arg)) {
			return oraItem{agg: "count*"}
		}
		if rng.Intn(4) == 0 {
			it.postOp = "+*"[rng.Intn(2)]
			it.post = &oraConst{types.Int(2), "2"}
		}
		return it
	}
}

// genScalar draws lhs op (SELECT agg(arg) FROM inner WHERE corr = outer …)
// with lhs and arg of one kind class and a same-kind correlation.
func (q *oraQuery) genScalar(rng *rand.Rand, inner int) *oraScalar {
	corrs := [][2]int{{oraA, oraA}, {oraB, oraA}, {oraID, oraA}, {oraA, oraID}, {oraS, oraS}, {oraD, oraD}}
	cp := corrs[rng.Intn(len(corrs))]
	s := &oraScalar{
		outer: oraRef{rng.Intn(len(q.rels)), cp[0]},
		corr:  cp[1],
		table: inner,
		op:    []string{"=", "<", "<=", ">", ">=", "<>"}[rng.Intn(6)],
	}
	if q.rels[s.outer.rel].in != nil {
		s.outer.rel = 0
	}
	lhsRel := rng.Intn(len(q.rels))
	if q.rels[lhsRel].in != nil {
		lhsRel = 0
	}
	switch rng.Intn(4) {
	case 0: // strings and dates order too
		c := []int{oraS, oraD}[rng.Intn(2)]
		s.lhs, s.arg, s.agg = oraRef{lhsRel, c}, c, []string{"min", "max"}[rng.Intn(2)]
	default:
		s.lhs = oraRef{lhsRel, []int{oraA, oraB, oraX, oraID}[rng.Intn(4)]}
		s.arg = []int{oraA, oraB, oraX}[rng.Intn(3)]
		s.agg = []string{"min", "max", "sum", "avg"}[rng.Intn(4)]
	}
	if rng.Intn(2) == 0 {
		s.where = append(s.where, q.innerCmp(rng, inner))
	}
	return s
}

// ---------------------------------------------------------------------------
// SQL rendering.

type oraSQL struct {
	sb   strings.Builder
	args []types.Value
}

func (w *oraSQL) konst(c oraConst) {
	if c.sql == "" {
		w.sb.WriteString("?")
		w.args = append(w.args, c.v)
		return
	}
	w.sb.WriteString(c.sql)
}

func (q *oraQuery) colSQL(r oraRef) string {
	if q.rels[r.rel].in != nil {
		return fmt.Sprintf("q%d.k", r.rel)
	}
	return fmt.Sprintf("t%d.%s", q.rels[r.rel].table, oraColNames[r.col])
}

func (q *oraQuery) exprSQL(w *oraSQL, e *oraExpr) {
	switch {
	case e.ref != nil:
		w.sb.WriteString(q.colSQL(*e.ref))
	case e.c != nil:
		w.konst(*e.c)
	default:
		w.sb.WriteString("(")
		q.exprSQL(w, e.l)
		w.sb.WriteString(" " + string(e.op) + " ")
		q.exprSQL(w, e.r)
		w.sb.WriteString(")")
	}
}

// cmpsSQL renders filters over one table (inner < 0: the outer block's).
func (q *oraQuery) cmpsSQL(w *oraSQL, cmps []oraCmp, inner int, sep *string) {
	for _, f := range cmps {
		w.sb.WriteString(*sep)
		*sep = " AND "
		if inner >= 0 {
			w.sb.WriteString(fmt.Sprintf("t%d.%s", inner, oraColNames[f.col.col]))
		} else {
			w.sb.WriteString(q.colSQL(f.col))
		}
		w.sb.WriteString(" " + f.op + " ")
		w.konst(f.c)
	}
}

func (q *oraQuery) render() (string, []types.Value) {
	w := &oraSQL{}
	w.sb.WriteString("SELECT ")
	if q.distinct {
		w.sb.WriteString("DISTINCT ")
	}
	for i, it := range q.items {
		if i > 0 {
			w.sb.WriteString(", ")
		}
		switch it.agg {
		case "":
			q.exprSQL(w, it.e)
		case "count*":
			w.sb.WriteString("count(*)")
		default:
			w.sb.WriteString(it.agg + "(")
			q.exprSQL(w, it.arg)
			w.sb.WriteString(")")
			if it.post != nil {
				w.sb.WriteString(" " + string(it.postOp) + " ")
				w.konst(*it.post)
			}
		}
	}
	w.sb.WriteString(" FROM ")
	for i, r := range q.rels {
		if i > 0 {
			w.sb.WriteString(", ")
		}
		if r.in == nil {
			fmt.Fprintf(&w.sb, "t%d", r.table)
			continue
		}
		fmt.Fprintf(&w.sb, "(SELECT DISTINCT t%d.%s AS k FROM t%d", r.in.table, oraColNames[r.in.col], r.in.table)
		sep := " WHERE "
		q.cmpsSQL(w, r.in.where, r.in.table, &sep)
		fmt.Fprintf(&w.sb, ") q%d", i)
	}
	sep := " WHERE "
	for _, j := range q.joins {
		w.sb.WriteString(sep + q.colSQL(j.l) + " = " + q.colSQL(j.r))
		sep = " AND "
	}
	for _, th := range q.thetas {
		w.sb.WriteString(sep + q.colSQL(th.l) + " " + th.op + " " + q.colSQL(th.r))
		sep = " AND "
	}
	q.cmpsSQL(w, q.where, -1, &sep)
	if s := q.scalar; s != nil {
		fmt.Fprintf(&w.sb, "%s%s %s (SELECT %s(t%d.%s) FROM t%d WHERE t%d.%s = %s",
			sep, q.colSQL(s.lhs), s.op, s.agg, s.table, oraColNames[s.arg], s.table,
			s.table, oraColNames[s.corr], q.colSQL(s.outer))
		inSep := " AND "
		q.cmpsSQL(w, s.where, s.table, &inSep)
		w.sb.WriteString(")")
	}
	if len(q.group) > 0 {
		w.sb.WriteString(" GROUP BY ")
		for i, g := range q.group {
			if i > 0 {
				w.sb.WriteString(", ")
			}
			w.sb.WriteString(q.colSQL(g))
		}
	}
	return w.sb.String(), w.args
}

// ---------------------------------------------------------------------------
// The reference evaluator: nested loops over catalog.Table.Rows, with the
// engine's value semantics restated from their documentation.

// oraCompare orders two values the way the engine compares them (see
// types.Compare): a NULL never compares (ok=false); two INTs or two DATEs
// compare as integers, any other numeric pair as floats, where a NaN is
// neither less nor greater and so compares equal; strings compare bytewise.
func oraCompare(a, b types.Value) (int, bool) {
	if a.K == types.KindNull || b.K == types.KindNull {
		return 0, false
	}
	if a.K == types.KindString || b.K == types.KindString {
		if a.K != b.K {
			panic(fmt.Sprintf("oracle: comparing %v with %v", a, b))
		}
		return strings.Compare(a.S, b.S), true
	}
	if a.K == b.K && (a.K == types.KindInt || a.K == types.KindDate) {
		return cmp.Compare(a.I, b.I), true
	}
	af, bf := oraFloat(a), oraFloat(b)
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	}
	return 0, true
}

// oraLike matches s against a LIKE pattern by a regular expression: % is
// any run of bytes, _ any one byte, everything else itself.
func oraLike(s, pat string) bool {
	var re strings.Builder
	re.WriteString("(?s)^")
	for i := 0; i < len(pat); i++ {
		switch pat[i] {
		case '%':
			re.WriteString(".*")
		case '_':
			re.WriteString(".")
		default:
			re.WriteString(regexp.QuoteMeta(pat[i : i+1]))
		}
	}
	return regexp.MustCompile(re.String() + "$").MatchString(s)
}

func oraFloat(v types.Value) float64 {
	if v.K == types.KindFloat {
		return v.F
	}
	return float64(v.I)
}

// oraHolds applies a comparison operator, or [NOT] LIKE the pattern b:
// false when either side is NULL.
func oraHolds(op string, a, b types.Value) bool {
	if op == "LIKE" || op == "NOT LIKE" {
		return a.K != types.KindNull && oraLike(a.S, b.S) == (op == "LIKE")
	}
	c, ok := oraCompare(a, b)
	if !ok {
		return false
	}
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default:
		return c >= 0
	}
}

// oraArith applies +, -, *: NULL propagates, two INTs stay INT, anything
// else computes in floats.
func oraArith(op byte, l, r types.Value) types.Value {
	if l.IsNull() || r.IsNull() {
		return types.Null()
	}
	if l.K == types.KindInt && r.K == types.KindInt {
		switch op {
		case '+':
			return types.Int(l.I + r.I)
		case '-':
			return types.Int(l.I - r.I)
		default:
			return types.Int(l.I * r.I)
		}
	}
	lf, rf := oraFloat(l), oraFloat(r)
	switch op {
	case '+':
		return types.Float(lf + rf)
	case '-':
		return types.Float(lf - rf)
	default:
		return types.Float(lf * rf)
	}
}

// oraKey is a value's grouping identity: equal-comparing values share it (an
// integral DECIMAL groups with the INT of its value), NULLs group together.
func oraKey(v types.Value) string {
	switch v.K {
	case types.KindNull:
		return "N"
	case types.KindString:
		return "s" + v.S
	case types.KindFloat:
		if v.F != math.Trunc(v.F) {
			return "f" + strconv.FormatUint(math.Float64bits(v.F), 16)
		}
		return "n" + strconv.FormatInt(int64(v.F), 10)
	}
	return "n" + strconv.FormatInt(v.I, 10)
}

// oraAcc accumulates one aggregate.
type oraAcc struct {
	n      int64
	sumI   int64
	sumF   float64
	minmax types.Value
}

func (a *oraAcc) add(agg string, v types.Value) {
	if agg == "count*" {
		a.n++
		return
	}
	if v.IsNull() {
		return
	}
	a.n++
	switch agg {
	case "sum", "avg":
		if v.K == types.KindInt {
			a.sumI += v.I
		}
		a.sumF += oraFloat(v)
	case "min", "max":
		if c, _ := oraCompare(v, a.minmax); a.n == 1 || agg == "min" && c < 0 || agg == "max" && c > 0 {
			a.minmax = v
		}
	}
}

// result: counts are INT; a sum over an INT-kinded argument is INT, else
// DECIMAL; avg is DECIMAL; an aggregate of no non-NULL value is NULL.
func (a *oraAcc) result(agg string, argKind types.Kind) types.Value {
	switch {
	case agg == "count*" || agg == "count":
		return types.Int(a.n)
	case a.n == 0:
		return types.Null()
	case agg == "sum" && argKind == types.KindInt:
		return types.Int(a.sumI)
	case agg == "sum":
		return types.Float(a.sumF)
	case agg == "avg":
		return types.Float(a.sumF / float64(a.n))
	}
	return a.minmax
}

// Work bounds of the reference: a query whose nested loops would run longer,
// or whose answer is larger, is discarded and another one drawn.
const (
	oraMaxLoop = 3_000_000 // inner-loop iterations of one join level
	oraMaxRows = 20_000    // partial or final result rows
)

// oraPred is a conjunct over some relations, evaluated at the nested-loop
// level that binds the last of them.
type oraPred struct {
	rels []int
	fn   func(rows []types.Tuple) bool
}

// eval computes the query's answer, or ok=false past the work bounds.
func (q *oraQuery) eval() ([]types.Tuple, bool) {
	// Each relation's rows after its own filters.
	rels := make([][]types.Tuple, len(q.rels))
	for i, r := range q.rels {
		if r.in != nil {
			rels[i] = r.in.rows(q.oc)
		} else {
			rels[i] = q.oc.tables[r.table].Rows
		}
		var mine []oraCmp
		for _, f := range q.where {
			if f.col.rel == i {
				mine = append(mine, f)
			}
		}
		rels[i] = oraSelect(rels[i], mine)
	}
	var preds []oraPred
	for _, j := range q.joins {
		j := j
		preds = append(preds, oraPred{[]int{j.l.rel, j.r.rel}, func(rows []types.Tuple) bool {
			return oraHolds("=", rows[j.l.rel][j.l.col], rows[j.r.rel][j.r.col])
		}})
	}
	for _, th := range q.thetas {
		th := th
		preds = append(preds, oraPred{[]int{th.l.rel, th.r.rel}, func(rows []types.Tuple) bool {
			return oraHolds(th.op, rows[th.l.rel][th.l.col], rows[th.r.rel][th.r.col])
		}})
	}
	if s := q.scalar; s != nil {
		s.innerRows = oraSelect(q.oc.tables[s.table].Rows, s.where)
		s.memo = map[string]types.Value{}
		preds = append(preds, oraPred{[]int{s.lhs.rel, s.outer.rel}, func(rows []types.Tuple) bool {
			return oraHolds(s.op, rows[s.lhs.rel][s.lhs.col], s.value(rows[s.outer.rel][s.outer.col]))
		}})
	}

	// Nested loops, one relation per level: the smallest relation first, then
	// always the smallest one a conjunct connects to what is bound.
	bound := make([]bool, len(rels))
	partial := [][]types.Tuple{make([]types.Tuple, len(rels))}
	for range rels {
		next := -1
		for i := range rels {
			if bound[i] {
				continue
			}
			if next < 0 || q.connected(preds, bound, i) && !q.connected(preds, bound, next) ||
				q.connected(preds, bound, i) == q.connected(preds, bound, next) && len(rels[i]) < len(rels[next]) {
				next = i
			}
		}
		bound[next] = true
		var level []oraPred
		for _, p := range preds {
			if slices.Contains(p.rels, next) && !slices.ContainsFunc(p.rels, func(r int) bool { return !bound[r] }) {
				level = append(level, p)
			}
		}
		if len(partial)*len(rels[next]) > oraMaxLoop {
			return nil, false
		}
		var out [][]types.Tuple
		for _, p := range partial {
			for _, row := range rels[next] {
				p[next] = row
				if !slices.ContainsFunc(level, func(pr oraPred) bool { return !pr.fn(p) }) {
					out = append(out, slices.Clone(p))
				}
			}
		}
		if len(out) > oraMaxRows {
			return nil, false
		}
		partial = out
	}
	return q.project(partial), true
}

// connected reports whether a conjunct ties relation i to the bound ones.
func (q *oraQuery) connected(preds []oraPred, bound []bool, i int) bool {
	for _, p := range preds {
		if slices.Contains(p.rels, i) && slices.ContainsFunc(p.rels, func(r int) bool { return r != i && bound[r] }) {
			return true
		}
	}
	return false
}

// oraSelect keeps the rows passing every filter.
func oraSelect(rows []types.Tuple, cmps []oraCmp) []types.Tuple {
	if len(cmps) == 0 {
		return rows
	}
	var out []types.Tuple
	for _, r := range rows {
		if !slices.ContainsFunc(cmps, func(f oraCmp) bool { return !oraHolds(f.op, r[f.col.col], f.c.v) }) {
			out = append(out, r)
		}
	}
	return out
}

// rows is the IN-subquery relation: the distinct values of the column over
// the inner rows passing the inner filters.
func (in *oraIn) rows(oc *oraCatalog) []types.Tuple {
	seen := map[string]bool{}
	var out []types.Tuple
	for _, r := range oraSelect(oc.tables[in.table].Rows, in.where) {
		if k := oraKey(r[in.col]); !seen[k] {
			seen[k] = true
			out = append(out, types.Tuple{r[in.col]})
		}
	}
	return out
}

// value is the scalar subquery's result for one outer row: the aggregate over
// the inner rows whose correlation column equals v (none when v is NULL).
func (s *oraScalar) value(v types.Value) types.Value {
	k := oraKey(v)
	if r, ok := s.memo[k]; ok {
		return r
	}
	var acc oraAcc
	for _, row := range s.innerRows {
		if oraHolds("=", row[s.corr], v) {
			acc.add(s.agg, row[s.arg])
		}
	}
	r := acc.result(s.agg, oraColKinds[s.arg])
	s.memo[k] = r
	return r
}

func (q *oraQuery) value(e *oraExpr, rows []types.Tuple) types.Value {
	switch {
	case e.ref != nil:
		return rows[e.ref.rel][e.ref.col]
	case e.c != nil:
		return e.c.v
	}
	return oraArith(e.op, q.value(e.l, rows), q.value(e.r, rows))
}

// project evaluates the select list over the joined rows: per row, per
// distinct row, or per group.
func (q *oraQuery) project(joined [][]types.Tuple) []types.Tuple {
	var out []types.Tuple
	if !q.grouped {
		seen := map[string]bool{}
		for _, rows := range joined {
			row := make(types.Tuple, len(q.items))
			var key strings.Builder
			for i, it := range q.items {
				row[i] = q.value(it.e, rows)
				key.WriteString(oraKey(row[i]) + "\x00")
			}
			if q.distinct {
				if seen[key.String()] {
					continue
				}
				seen[key.String()] = true
			}
			out = append(out, row)
		}
		return out
	}
	type group struct {
		first []types.Tuple
		accs  []oraAcc
	}
	groups := map[string]*group{}
	var order []string
	for _, rows := range joined {
		var key strings.Builder
		for _, g := range q.group {
			key.WriteString(oraKey(rows[g.rel][g.col]) + "\x00")
		}
		gr := groups[key.String()]
		if gr == nil {
			gr = &group{first: rows, accs: make([]oraAcc, len(q.items))}
			groups[key.String()] = gr
			order = append(order, key.String())
		}
		for i, it := range q.items {
			if it.agg != "" {
				var v types.Value
				if it.arg != nil {
					v = q.value(it.arg, rows)
				}
				gr.accs[i].add(it.agg, v)
			}
		}
	}
	if len(q.group) == 0 && len(groups) == 0 { // a global aggregate of nothing
		groups[""] = &group{accs: make([]oraAcc, len(q.items))}
		order = append(order, "")
	}
	for _, k := range order {
		gr := groups[k]
		row := make(types.Tuple, len(q.items))
		for i, it := range q.items {
			if it.agg == "" {
				row[i] = q.value(it.e, gr.first)
				continue
			}
			argKind := types.KindFloat
			if it.arg != nil {
				argKind = q.kindOf(it.arg)
			}
			row[i] = gr.accs[i].result(it.agg, argKind)
			if it.post != nil {
				row[i] = oraArith(it.postOp, row[i], it.post.v)
			}
		}
		out = append(out, row)
	}
	return out
}

// oraCanon renders rows as sorted strings that keep each value's kind.
func oraCanon(rows []types.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var sb strings.Builder
		for j, v := range r {
			if j > 0 {
				sb.WriteString("|")
			}
			switch v.K {
			case types.KindNull:
				sb.WriteString("NULL")
			case types.KindInt:
				sb.WriteString("i" + strconv.FormatInt(v.I, 10))
			case types.KindFloat:
				sb.WriteString("f" + strconv.FormatFloat(v.F, 'g', -1, 64))
			case types.KindString:
				sb.WriteString(strconv.Quote(v.S))
			default:
				sb.WriteString(v.K.String() + ":" + v.String())
			}
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Properties.

type oraEnv struct {
	t     *testing.T
	eng   *Engine
	spill string
	reach *oraReach
}

type oraCase struct {
	env    *oraEnv
	seed   int64
	idx    int
	sql    string
	args   []types.Value
	tables []string // the base tables the query reads
	want   []string
}

// oraRun is one execution's outcome.
type oraRun struct {
	rows  []string
	res   *Result
	err   error
	reach oraReach
	banks map[string]oraBank // by point name, see oraBanks
}

// oraBank is what one run left in the filter bank of an input a scan probes
// for: whether start order held the scan back until every stateful input
// it does not feed was done (so every filter was in place before its first
// row), whether the scan's table has a vector for every filtered column (no
// NULL, DECIMAL or string key can reach a filter), the filters, each
// one-column filter's vector (the values the scan probed it with), and the
// rows they pruned.
type oraBank struct {
	early, intOnly bool
	cols           [][]int
	sums           []filter.Summary
	vecs           [][]int64
	pruned         int64
}

// oraBanks records the banks of the inputs wired scans probe for.
func oraBanks(p *enginePlan, rows *Rows) map[string]oraBank {
	scans := map[string]*exec.Scan{}
	wiredScans(p.built.Root, scans)
	banks := map[string]oraBank{}
	for _, pt := range rows.ectx.Points() {
		sc := scans[pt.Name]
		if sc == nil || sc.Vecs == nil || pt.Op == nil {
			continue
		}
		b := oraBank{early: early(rows, pt), intOnly: true, pruned: pt.Op.Pruned.Load()}
		pt.Bank.Each(func(cols []int, sum filter.Summary) {
			var vec []int64
			for _, c := range cols {
				if vec, _ = sc.Vecs.IntVec(c); vec == nil {
					b.intOnly = false
				}
			}
			if len(cols) != 1 {
				vec = nil
			}
			b.cols, b.sums, b.vecs = append(b.cols, cols), append(b.sums, sum), append(b.vecs, vec)
		})
		banks[pt.Name] = b
	}
	return banks
}

func (c *oraCase) fail(label, format string, a ...any) {
	c.env.t.Helper()
	c.env.t.Fatalf("oracle seed %d query %d [%s]: %s\n  sql:  %s\n  args: %v\n  (rerun: SIP_ORACLE_SEED=%d go test -run TestGeneratedQueryOracle .)",
		c.seed, c.idx, label, fmt.Sprintf(format, a...), c.sql, c.args, c.seed)
}

// check runs the case under every property; rng picks the strategies of the
// single-run properties.
func (c *oraCase) check(rng *rand.Rand) {
	c.env.t.Helper()
	strat := func() Strategy { return AllStrategies()[rng.Intn(4)] }
	var peak int64
	for i, s := range AllStrategies() {
		label := s.String() + "/P=4"
		r := c.run(label, Options{Strategy: s, Parallelism: 4}, false)
		c.same(label, r, c.want)
		peak = max(peak, r.res.PeakMemBytes)
		if i == 0 {
			c.env.reach.routed += r.reach.routed
			c.env.reach.router += r.reach.router
			c.env.reach.narrowed += r.reach.narrowed
			c.env.reach.waited += r.reach.waited
			c.env.reach.direct += r.reach.direct
			c.env.reach.words += r.reach.words
			c.env.reach.bytes += r.reach.bytes
			c.env.reach.coded += r.reach.coded
		}
		c.env.reach.runs += r.reach.runs
	}
	p1 := strat()
	c.same(p1.String()+"/P=1", c.run(p1.String()+"/P=1", Options{Strategy: p1, Parallelism: 1}, false), c.want)
	hs := []Strategy{FeedForward, CostBased}[rng.Intn(2)]
	label := hs.String() + "/hashset"
	c.same(label, c.run(label, Options{Strategy: hs, Summary: SummaryHashSet, Parallelism: 4}, false), c.want)
	c.bitmapExact([]Strategy{FeedForward, CostBased}[rng.Intn(2)])
	st := strat()
	label = st.String() + "/stream"
	c.same(label, c.run(label, Options{Strategy: st, Parallelism: 4}, true), c.want)
	if peak > 0 {
		bs := strat()
		label = fmt.Sprintf("%s/budget=%d", bs, peak/4)
		r := c.run(label, Options{Strategy: bs, Parallelism: 4, MemBudget: max(peak/4, 1)}, false)
		var be *BudgetError
		if !errors.As(r.err, &be) {
			c.same(label, r, c.want)
		}
	}
	c.modeled()
}

// modeled runs the case once on modeled sources: a drawn subset of its tables
// delayed — µs pauses every 1 to 300 rows, bursts, an initial delay — and on
// a coin flip a seeded transient fault profile on the delayed scans with
// retries enough to absorb it. The other tables run unmodeled, so one query
// can mix delayed scans with start-ordered, row-id-root ones; such runs are
// counted. The source model decides when rows arrive, never which. It draws
// from a stream of the case's own, so the cases after it stay what they
// were.
func (c *oraCase) modeled() {
	c.env.t.Helper()
	rng := rand.New(rand.NewSource(c.seed*1009 + int64(c.idx)))
	us := func(n int) time.Duration { return time.Duration(rng.Intn(n)) * time.Microsecond }
	var delayed []string
	for _, t := range c.tables {
		if rng.Intn(2) == 0 {
			delayed = append(delayed, t)
		}
	}
	d := &DelayConfig{Initial: us(100), EveryN: 1 + rng.Intn(300), Pause: us(3)}
	if rng.Intn(2) == 0 {
		d.BurstEveryN, d.BurstPause = 100+rng.Intn(1900), us(100)
	}
	opts := Options{
		Strategy:      AllStrategies()[rng.Intn(4)],
		Parallelism:   []int{1, 4}[rng.Intn(2)],
		DelayedTables: delayed,
		Delay:         d,
	}
	if len(delayed) > 0 && len(delayed) < len(c.tables) {
		c.env.reach.mixed++
	}
	faults := ""
	if rng.Intn(2) == 0 {
		opts.Faults = &FaultProfile{Seed: rng.Int63(), TransientRate: 0.2 * rng.Float64()}
		opts.Retry = RetryPolicy{MaxRetries: 64, AttemptTimeout: -1, BaseBackoff: time.Microsecond,
			MaxBackoff: time.Microsecond, Jitter: -1, BreakerFailures: -1}
		faults = fmt.Sprintf(" faults=%+v", *opts.Faults)
	}
	label := fmt.Sprintf("%s/P=%d/modeled delayed=%v delay=%+v%s",
		opts.Strategy, opts.Parallelism, delayed, *d, faults)
	c.same(label, c.run(label, opts, false), c.want)
}

// bitmapExact runs the case under s at P=1 twice, with the default
// summaries and with SummaryHashSet. A bitmap is exact like a hash set, so
// an input whose filters were all bitmaps must have pruned exactly what the
// hash-set run pruned there — wherever the comparison is fair: a wired
// scan's input that got every filter before its first row in both runs,
// whose filtered columns hold only integers, and whose bitmaps hold the
// same values as the hash sets over the same columns (the producers stored
// the same keys in both runs; a race between a producer and a filter it
// receives can make them differ, without changing the answer).
func (c *oraCase) bitmapExact(s Strategy) {
	c.env.t.Helper()
	label := s.String() + "/P=1"
	bm := c.run(label, Options{Strategy: s, Parallelism: 1}, false)
	c.same(label, bm, c.want)
	hs := c.run(label+"/hashset", Options{Strategy: s, Summary: SummaryHashSet, Parallelism: 1}, false)
	c.same(label+"/hashset", hs, c.want)
	for name, b := range bm.banks {
		h, ok := hs.banks[name]
		if !ok || !b.early || !h.early || !b.intOnly || len(b.sums) == 0 || !sameSets(b, h) {
			continue
		}
		c.env.reach.bitmaps++
		if b.pruned != h.pruned {
			c.fail(label, "%s: its bitmaps pruned %d rows, the same sets as hash sets %d", name, b.pruned, h.pruned)
		}
	}
}

// sameSets reports whether every filter of b is a one-column bitmap that
// holds, of the values its scan probed it with, exactly those the hash sets
// of h over the same column hold in common.
func sameSets(b, h oraBank) bool {
	for i, sum := range b.sums {
		bmp, ok := sum.(*filter.Bitmap)
		if !ok || b.vecs[i] == nil {
			return false
		}
		var sets []filter.Summary
		for j, hsum := range h.sums {
			if slices.Equal(h.cols[j], b.cols[i]) {
				sets = append(sets, hsum)
			}
		}
		if len(sets) == 0 {
			return false
		}
		seen := map[int64]bool{}
		for _, v := range b.vecs[i] {
			if seen[v] {
				continue
			}
			seen[v] = true
			key := types.AppendIntKey(nil, v)
			in := true
			for _, set := range sets {
				in = in && set.MayContainHash(types.Hash64(key, 0), key)
			}
			if in != bmp.Contains(v) {
				return false
			}
		}
	}
	return true
}

// bitmapReplay probes every table row of each wired scan whose input ended
// the run holding a one-column bitmap through that bitmap again, on the
// path an operator-fed input's router takes: from the tuples, before any
// key is computed. It must keep exactly the rows the bitmap's contract
// keeps — an integer-tagged key whose value it holds, and every key that is
// not integer-tagged (NULL, a non-integral DECIMAL, a string).
// It reads only the run's final banks and the table, so timing cannot move
// it; the scan's own vector probe is what bitmapExact compares.
func (c *oraCase) bitmapReplay(label string, p *enginePlan, rows *Rows) {
	c.env.t.Helper()
	scans := map[string]*exec.Scan{}
	wiredScans(p.built.Root, scans)
	for _, pt := range rows.ectx.Points() {
		scan := scans[pt.Name]
		if scan == nil || len(scan.Rows) == 0 {
			continue
		}
		var ps exec.ProbeScratch
		all := make([]int32, len(scan.Rows))
		for i := range all {
			all[i] = int32(i)
		}
		pt.Bank.Each(func(cols []int, sum filter.Summary) {
			bmp, ok := sum.(*filter.Bitmap)
			if !ok || len(cols) != 1 {
				return
			}
			var want []int32
			for l, r := range scan.Rows {
				key := r[cols[0]].AppendKey(nil)
				if len(key) != 9 || key[0] != 0x01 || bmp.Contains(int64(binary.BigEndian.Uint64(key[1:]))) {
					want = append(want, int32(l))
				}
			}
			bank := exec.NewFilterBank()
			bank.Attach(cols, bmp)
			if got := bank.ProbeBatch(scan.Rows, nil, all, nil, &ps); !slices.Equal(got, want) {
				c.fail(label, "%s: its bitmap over column %d kept %d of %d rows probed from tuples, the contract %d",
					pt.Name, cols[0], len(got), len(scan.Rows), len(want))
			}
			c.env.reach.replayed++
		})
	}
}

// same fails unless the run succeeded with the reference rows.
func (c *oraCase) same(label string, r oraRun, want []string) {
	c.env.t.Helper()
	if r.err != nil {
		c.fail(label, "error: %v", r.err)
	}
	if !slices.Equal(r.rows, want) {
		c.fail(label, "%d rows, reference %d\n%s", len(r.rows), len(want), oraDiff(r.rows, want))
	}
}

// oraDiff shows the first rows only one side has.
func oraDiff(got, want []string) string {
	var extra, missing []string
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || i < len(got) && got[i] < want[j]:
			extra = append(extra, got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			missing = append(missing, want[j])
			j++
		default:
			i++
			j++
		}
	}
	return fmt.Sprintf("  engine only (%d): %q\n  reference only (%d): %q",
		len(extra), extra[:min(len(extra), 5)], len(missing), missing[:min(len(missing), 5)])
}

// oraDeadline is how long one run of a generated case may take: the
// catalogs are a few thousand rows, so only a hang comes near it.
const oraDeadline = 60 * time.Second

// run executes the case once — the blocking drain (what Query does) or the
// streaming cursor — and checks the per-query properties: quiescence, and
// source-side pruning under Feed-forward.
func (c *oraCase) run(label string, opts Options, stream bool) oraRun {
	c.env.t.Helper()
	ctx := context.Background()
	eng := c.env.eng
	before := runtime.NumGoroutine()
	var (
		rows *Rows
		p    *enginePlan
		err  error
	)
	if len(c.args) > 0 {
		var st *Stmt
		if st, err = eng.PrepareWithOptions(ctx, c.sql, opts); err == nil {
			p = st.plan
			rows, err = st.QueryStream(ctx, c.args...)
		}
	} else if rows, err = eng.QueryStream(ctx, c.sql, opts); err == nil {
		p, _, err = eng.adhocPlan(c.sql, opts)
	}
	if err != nil {
		c.fail(label, "start: %v", err)
	}
	// A run that does not finish in time is cancelled — which ends any
	// start-order wait — and fails with its wait graph.
	hung := time.AfterFunc(oraDeadline, rows.ectx.Cancel)
	var out oraRun
	if stream {
		var got []Row
		for rows.Next() {
			got = append(got, rows.Row())
		}
		out.err, out.res = rows.Err(), rows.Result()
		out.rows = oraCanon(got)
	} else {
		out.res, out.err = rows.drain()
		if out.err == nil {
			out.rows = oraCanon(out.res.Rows)
		}
	}
	if !hung.Stop() {
		c.fail(label, "still running after %v; wait graph:\n%s", oraDeadline, waitGraphText(rows.ectx))
	}
	c.quiescent(label, rows, before)
	out.banks = oraBanks(p, rows)
	c.bitmapReplay(label, p, rows)
	out.reach.waited = c.startWaits(label, rows)
	routed := map[string]bool{} // per aggregation: whether a scan routed for it
	for _, op := range rows.ectx.Stats.Ops() {
		out.reach.direct += int(op.Direct.Load())
		if strings.HasPrefix(op.Name, "agg:") && op.SpillEvents.Load() > 0 && op.Direct.Load() > 1 {
			out.reach.reinstalled++
		}
		if strings.HasPrefix(op.Name, "agg:") && !routed[op.Name] {
			routed[op.Name] = false
		}
		if strings.HasPrefix(op.Routed, "agg:") {
			routed[op.Routed] = true
		}
		if op.Cols < op.Width {
			out.reach.narrowed++
		}
		out.reach.coded += op.Coded
		out.reach.runs += int(op.RunProbes.Load())
		if op.Class == "join" || op.Class == "distinct" {
			out.reach.words += min(int(op.WordBatches.Load()), 1)
			out.reach.bytes += min(int(op.ByteBatches.Load()), 1)
		}
	}
	for _, r := range routed {
		if r {
			out.reach.routed++
		} else {
			out.reach.router++
		}
	}
	if out.err == nil && opts.Strategy == FeedForward {
		c.sourcePruning(label, p, rows)
	}
	return out
}

// quiescent fails unless the finished query left nothing behind: goroutines
// (Rows.finish waited for the operators; the count may lag their exit by a
// scheduling step), accounted state bytes, spill directories.
func (c *oraCase) quiescent(label string, rows *Rows, before int) {
	c.env.t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			c.fail(label, "%d goroutines after the query, %d before\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if n := rows.ectx.TrackedBytes(); n != 0 {
		c.fail(label, "%d tracked state bytes still accounted after the query", n)
	}
	if ents, err := os.ReadDir(c.env.spill); err != nil || len(ents) > 0 {
		c.fail(label, "spill directory not cleaned up: %v %v", ents, err)
	}
}

// startWaits fails unless the run's wait graph — its data edges plus every
// wait a wired scan held its first chunk for — is acyclic: a wait that closes
// a cycle never ends, so acyclicity is start order's deadlock freedom. It
// returns how many scans waited.
func (c *oraCase) startWaits(label string, rows *Rows) int {
	c.env.t.Helper()
	data, waits, _ := rows.ectx.WaitGraph()
	if cyc := waitCycle(append(data, waits...)); cyc != "" {
		c.fail(label, "start order: the wait graph has the cycle %s\n%s", cyc, waitGraphText(rows.ectx))
	}
	waited := 0
	for _, op := range rows.ectx.Stats.Ops() {
		if len(op.WaitedFor) > 0 {
			waited++
		}
	}
	return waited
}

// waitCycle returns a cycle of edges (From publishes only after To), as
// point names joined by arrows, or "" when there is none.
func waitCycle(edges []exec.WaitEdge) string {
	after := map[*exec.Point][]*exec.Point{}
	for _, e := range edges {
		after[e.From] = append(after[e.From], e.To)
	}
	const (
		open = 1
		done = 2
	)
	state := map[*exec.Point]int{}
	var stack []*exec.Point
	var visit func(p *exec.Point) string
	visit = func(p *exec.Point) string {
		switch state[p] {
		case open:
			i := slices.Index(stack, p)
			names := []string{}
			for _, q := range append(stack[i:], p) {
				names = append(names, q.Name)
			}
			return strings.Join(names, "→")
		case done:
			return ""
		}
		state[p] = open
		stack = append(stack, p)
		for _, q := range after[p] {
			if cyc := visit(q); cyc != "" {
				return cyc
			}
		}
		stack = stack[:len(stack)-1]
		state[p] = done
		return ""
	}
	for _, e := range edges {
		if cyc := visit(e.From); cyc != "" {
			return cyc
		}
	}
	return ""
}

// waitGraphText prints a run's wait graph, one edge a line: data edges, the
// accepted waits and the refused ones.
func waitGraphText(ectx *exec.Context) string {
	data, waits, refused := ectx.WaitGraph()
	var b strings.Builder
	for _, set := range []struct {
		name  string
		edges []exec.WaitEdge
	}{{"data", data}, {"wait", waits}, {"refused", refused}} {
		for _, e := range set.edges {
			fmt.Fprintf(&b, "  %s %s → %s %s\n", set.name, e.From.Name, e.To.Name, e.Why)
		}
	}
	return b.String()
}

// early reports whether pt's wired scan started after every stateful input
// it does not feed was done: start order held it back for each of them.
func early(rows *Rows, pt *exec.Point) bool {
	var waits []*exec.Point
	_, edges, _ := rows.ectx.WaitGraph()
	for _, e := range edges {
		if e.From == pt {
			waits = append(waits, e.To)
		}
	}
	for _, q := range rows.ectx.Points() {
		if q == pt || slices.Contains(pt.Ancestors, q) || !q.Stateful {
			continue
		}
		if !slices.Contains(waits, q) {
			return false
		}
	}
	return true
}

// sourcePruning: a wired scan (one that probes its consumer's filters per
// chunk) which started after every filter its consumer can receive was
// published — start order held it back for every stateful input it does not
// feed, so Feed-forward had attached their filters — probes against the bank
// its consumer's router probes again, so the router must prune nothing: every
// pruned row was pruned at the source (received − In, the rows the scan
// dropped on the point's behalf).
func (c *oraCase) sourcePruning(label string, p *enginePlan, rows *Rows) {
	c.env.t.Helper()
	wired := map[string]*exec.Scan{}
	wiredScans(p.built.Root, wired)
	for _, pt := range rows.ectx.Points() {
		if _, ok := wired[pt.Name]; !ok || pt.Op == nil || !early(rows, pt) {
			continue
		}
		atSource := pt.Received() - pt.Op.In.Load()
		if pruned := pt.Op.Pruned.Load(); pruned != atSource {
			c.fail(label, "%s (fed by scan:%s) pruned %d rows, only %d of them at the source, though every filter it gets was published before the scan started",
				pt.Name, wired[pt.Name].Name, pruned, atSource)
		}
	}
}
