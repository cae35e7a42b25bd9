package sip

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestAdhocParameterizationSharesPlans pins the literal-parameterization
// contract: ad-hoc queries differing only in constants compile once and
// share a single cached template, and the parameterized execution returns
// exactly what the literal plan would have.
func TestAdhocParameterizationSharesPlans(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{})
	ctx := context.Background()

	// Reference results from an engine with the cache disabled (every call
	// takes the literal path).
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})

	for i := 0; i < 5; i++ {
		sql := fmt.Sprintf(`SELECT n_name FROM nation WHERE n_nationkey = %d`, i)
		got, err := e.Query(ctx, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(ctx, sql, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("q%d: %d rows, want %d", i, len(got.Rows), len(want.Rows))
		}
		for r := range got.Rows {
			if got.Rows[r].String() != want.Rows[r].String() {
				t.Fatalf("q%d row %d: %v, want %v", i, r, got.Rows[r], want.Rows[r])
			}
		}
	}
	cs := e.PlanCacheStats()
	if cs.Entries != 1 || cs.Misses != 1 || cs.Hits != 4 {
		t.Fatalf("5 literal variants should share one template: %+v", cs)
	}

	// Mixed literal kinds (float, string, date) parameterize too.
	for _, sql := range []string{
		`SELECT count(*) FROM part WHERE p_retailprice > 901.00`,
		`SELECT count(*) FROM part WHERE p_retailprice > 1200.50`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1995-03-15'`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1996-01-02'`,
		// The paper's loose date form must bind as an argument too.
		`SELECT count(*) FROM orders WHERE o_orderdate < '1995-1-1'`,
	} {
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	cs = e.PlanCacheStats()
	if cs.Entries != 3 { // nation template + price template + date template
		t.Fatalf("expected 3 templates, got %+v", cs)
	}
}

// TestAdhocParameterizationFallbacks covers the statements that must NOT
// parameterize: LIKE patterns (the grammar requires a literal pattern),
// user placeholders (prepared-statement territory), and literal-free text.
func TestAdhocParameterizationFallbacks(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{})
	ctx := context.Background()

	// LIKE keeps its pattern inline; the remaining literal still lifts.
	res, err := e.Query(ctx, `SELECT count(*) FROM part WHERE p_type LIKE '%BRASS%' AND p_size > 0`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I == 0 {
		t.Fatalf("LIKE query returned %v", res.Rows)
	}

	// Ad-hoc text with a user `?` still refuses with the Prepare hint.
	_, err = e.Query(ctx, `SELECT n_name FROM nation WHERE n_nationkey = ?`, Options{})
	if err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Fatalf("placeholder query error = %v, want Prepare hint", err)
	}

	// Literal-free queries run on the plain path and still cache.
	if _, err := e.Query(ctx, `SELECT count(*) FROM nation`, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, `SELECT count(*) FROM nation`, Options{}); err != nil {
		t.Fatal(err)
	}
	if cs := e.PlanCacheStats(); cs.Hits == 0 {
		t.Fatalf("literal-free repeat did not hit: %+v", cs)
	}

	// A syntactically invalid statement reports the error against the
	// user's own source, not the normalized text.
	_, err = e.Query(ctx, `SELECT FROM nation WHERE n_nationkey = 1`, Options{})
	if err == nil {
		t.Fatal("invalid SQL did not error")
	}
}

// TestGroupedSelectParameterizes pins `?` as a constant leaf of a grouped
// select expression: a prepared `sum(x) / ?` (and a `? * avg(x)` inside a
// correlated subquery, Q17's two shapes) returns what the literal text
// returns, and ad-hoc Q17 differing only in constants compiles once — the
// normalized template plans, so every repeat is a plan-cache hit instead of
// a failed bind of the normalized text followed by a literal-text lookup.
func TestGroupedSelectParameterizes(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	ctx := context.Background()
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})
	e := NewEngineWithConfig(cat, EngineConfig{})

	same := func(label string, got, want *Result) {
		t.Helper()
		if g, w := canon(got.Rows), canon(want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
			t.Fatalf("%s: rows %v, want %v", label, g, w)
		}
	}

	stmt, err := e.Prepare(ctx, `SELECT l_suppkey, sum(l_extendedprice) / ? FROM lineitem GROUP BY l_suppkey`)
	if err != nil {
		t.Fatalf("prepare sum(x) / ?: %v", err)
	}
	for _, d := range []float64{7.0, 2.5} {
		got, err := stmt.Query(ctx, Float(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Query(ctx, fmt.Sprintf(`SELECT l_suppkey, sum(l_extendedprice) / %g FROM lineitem GROUP BY l_suppkey`, d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("prepared / %g", d), got, want)
	}

	const q17 = `SELECT sum(l_extendedprice) / %g FROM lineitem, part
		WHERE p_partkey = l_partkey AND p_brand = '%s' AND p_container = 'MED CAN'
		AND l_quantity < (SELECT %g * avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`
	before := e.PlanCacheStats()
	n := 0
	for _, strat := range []Strategy{Baseline, FeedForward} {
		for i, brand := range []string{"Brand#34", "Brand#12", "Brand#23"} {
			sql := fmt.Sprintf(q17, 7.0+float64(i), brand, 0.2+0.1*float64(i))
			got, err := e.Query(ctx, sql, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("%v %s: %v", strat, brand, err)
			}
			want, err := ref.Query(ctx, sql, Options{})
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("Q17 %v %s", strat, brand), got, want)
			n++
		}
	}
	// Baseline and Feed-forward share a plan (the strategy is a runtime
	// choice), so n ad-hoc Q17 executions are one miss and n-1 hits.
	cs := e.PlanCacheStats()
	if cs.Misses-before.Misses != 1 || cs.Hits-before.Hits != int64(n-1) || cs.Entries-before.Entries != 1 {
		t.Fatalf("%d ad-hoc Q17 should be 1 miss and %d hits on 1 template: %+v after %+v", n, n-1, cs, before)
	}
}

// TestSlowQueryLog pins the engine-level slow-query log: queries at or over
// the threshold are recorded with their source text, most recent first, and
// fast queries stay out.
func TestSlowQueryLog(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	e := NewEngineWithConfig(cat, EngineConfig{SlowQueryThreshold: 1}) // 1ns: everything is slow
	ctx := context.Background()

	sqls := []string{
		`SELECT count(*) FROM nation WHERE n_nationkey = 1`,
		`SELECT count(*) FROM region WHERE r_regionkey = 2`,
	}
	for _, sql := range sqls {
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.SlowQueryCount(); n != 2 {
		t.Fatalf("SlowQueryCount = %d, want 2", n)
	}
	got := e.SlowQueries()
	if len(got) != 2 {
		t.Fatalf("SlowQueries returned %d entries, want 2", len(got))
	}
	// Most recent first.
	if got[0].SQL != sqls[1] || got[1].SQL != sqls[0] {
		t.Fatalf("slow log order: %q then %q", got[0].SQL, got[1].SQL)
	}
	if got[0].Duration <= 0 || got[0].At.IsZero() {
		t.Fatalf("slow entry not stamped: %+v", got[0])
	}

	// Threshold zero disables the log.
	off := NewEngineWithConfig(cat, EngineConfig{})
	if _, err := off.Query(ctx, sqls[0], Options{}); err != nil {
		t.Fatal(err)
	}
	if n := off.SlowQueryCount(); n != 0 {
		t.Fatalf("disabled slow log recorded %d", n)
	}

	// The ring keeps only the newest slowLogSize entries but counts all.
	for i := 0; i < slowLogSize+10; i++ {
		if _, err := e.Query(ctx, fmt.Sprintf(`SELECT count(*) FROM nation WHERE n_nationkey = %d`, i), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.SlowQueryCount(); n != int64(2+slowLogSize+10) {
		t.Fatalf("SlowQueryCount = %d, want %d", n, 2+slowLogSize+10)
	}
	if got := e.SlowQueries(); len(got) != slowLogSize {
		t.Fatalf("ring held %d entries, want %d", len(got), slowLogSize)
	}
}

// TestAdhocLiteralKinds: a lifted literal its parameter's inferred kind
// cannot hold — a bare string or DECIMAL in the SELECT list, a DECIMAL times
// an INTEGER column, a string or DECIMAL compared with an INTEGER — takes the
// literal plan, so the cached engine reports the column kinds and returns the
// rows the uncached one does (the labels of lifted literals are another
// matter: they read `?`), on a cold cache and on a template another
// literal already built; a literal that fits still shares its template.
func TestAdhocLiteralKinds(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	ctx := context.Background()
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})
	for _, group := range [][]string{
		{`SELECT r_name, 'x' FROM region`, `SELECT r_name, 7 FROM region`, `SELECT r_name, 'y' FROM region`},
		{`SELECT r_name, 2.5 FROM region`, `SELECT r_name, 2 FROM region`, `SELECT r_name, 3.5 FROM region`},
		{`SELECT r_regionkey * 2.5 FROM region`, `SELECT r_regionkey * 2 FROM region`, `SELECT r_regionkey * 0.5 FROM region`},
		{`SELECT r_name FROM region WHERE r_regionkey < 2.5`, `SELECT r_name FROM region WHERE r_regionkey < 3`},
		{`SELECT n_name FROM nation WHERE n_nationkey = 'x'`, `SELECT n_name FROM nation WHERE n_nationkey = 4`},
	} {
		e := NewEngineWithConfig(cat, EngineConfig{})
		for _, sql := range group {
			want, werr := ref.Query(ctx, sql, Options{})
			got, gerr := e.Query(ctx, sql, Options{})
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s: cached error %v, uncached %v", sql, gerr, werr)
			}
			if werr != nil {
				continue
			}
			kinds := func(s *Schema) (ks []string) {
				for _, c := range s.Cols {
					ks = append(ks, c.Kind.String())
				}
				return ks
			}
			if g, w := kinds(got.Schema), kinds(want.Schema); !slices.Equal(g, w) {
				t.Fatalf("%s: cached column kinds %v, uncached %v", sql, g, w)
			}
			if g, w := canon(got.Rows), canon(want.Rows); strings.Join(g, "\n") != strings.Join(w, "\n") {
				t.Fatalf("%s: cached rows %v, uncached %v", sql, g, w)
			}
		}
	}

	// Fitting literals share a template: an INTEGER where a DECIMAL is
	// inferred, a string where a DATE is.
	e := NewEngineWithConfig(cat, EngineConfig{})
	for _, sql := range []string{
		`SELECT count(*) FROM part WHERE p_retailprice > 901.5`,
		`SELECT count(*) FROM part WHERE p_retailprice > 1200`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1995-03-15'`,
		`SELECT count(*) FROM orders WHERE o_orderdate < '1996-1-2'`,
	} {
		if _, err := e.Query(ctx, sql, Options{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if cs := e.PlanCacheStats(); cs.Entries != 2 || cs.Hits != 2 {
		t.Fatalf("fitting literals should share 2 templates with 2 hits: %+v", cs)
	}
}

// TestAdhocLabels: a label printed from an expression with literals reads
// the same on the ad-hoc path (literals lifted into a cached template, so a
// second query with other literals hits it), the literal path (cache off)
// and the prepared path, and a placeholder the user typed stays '?'.
func TestAdhocLabels(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	ctx := context.Background()
	ref := NewEngineWithConfig(cat, EngineConfig{PlanCacheSize: -1})
	labels := func(s *Schema) (ls []string) {
		for _, c := range s.Cols {
			ls = append(ls, c.Name)
		}
		return ls
	}
	e := NewEngineWithConfig(cat, EngineConfig{})
	for _, tc := range []struct {
		sqls []string // one shape, other literals
		want []string // the first query's labels
	}{
		{[]string{
			`SELECT n_regionkey, count(*) * 2 FROM nation WHERE n_nationkey < 10 GROUP BY n_regionkey`,
			`SELECT n_regionkey, count(*) * 3 FROM nation WHERE n_nationkey < 12 GROUP BY n_regionkey`,
		}, []string{"n_regionkey", "(count(*)*2)"}},
		{[]string{`SELECT sum(l_extendedprice) / 7.0 FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED CAN'
  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`,
			`SELECT sum(l_extendedprice) / 8.5 FROM lineitem, part
WHERE p_partkey = l_partkey AND p_brand = 'Brand#12' AND p_container = 'MED CAN'
  AND l_quantity < (SELECT 0.2 * avg(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`,
		}, []string{"(sum(l_extendedprice)/7.0)"}},
		{[]string{
			`SELECT r_regionkey + 1, r_name LIKE '%A?%', 0 - r_regionkey * 3 FROM region`,
			`SELECT r_regionkey + 4, r_name LIKE '%A?%', 0 - r_regionkey * 5 FROM region`,
		}, []string{"(r_regionkey+1)", "r_nameLIKE'%A?%'", "(0-(r_regionkey*3))"}},
		// A NUL byte in a LIKE pattern (never lifted) and in a string
		// literal (lifted) beside lifted literals.
		{[]string{
			"SELECT (r_name LIKE 'a\x00' OR r_regionkey > 1), (r_name = 'b\x00' OR r_regionkey < 2) FROM region",
			"SELECT (r_name LIKE 'a\x00' OR r_regionkey > 3), (r_name = 'c\x00' OR r_regionkey < 4) FROM region",
		}, []string{"(r_nameLIKE'a\x00'OR(r_regionkey>1))", "((r_name='b\x00')OR(r_regionkey<2))"}},
	} {
		for i, sql := range tc.sqls {
			lit, err := ref.Query(ctx, sql, Options{})
			if err != nil {
				t.Fatal(err)
			}
			adhoc, err := e.Query(ctx, sql, Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.Prepare(ctx, sql)
			if err != nil {
				t.Fatal(err)
			}
			want := labels(lit.Schema)
			if i == 0 && !slices.Equal(want, tc.want) {
				t.Fatalf("%s: literal labels %q, want %q", sql, want, tc.want)
			}
			if g := labels(adhoc.Schema); !slices.Equal(g, want) {
				t.Fatalf("%s: ad-hoc labels %q, literal %q", sql, g, want)
			}
			if g := labels(st.Schema()); !slices.Equal(g, want) {
				t.Fatalf("%s: prepared labels %q, literal %q", sql, g, want)
			}
		}
	}
	if cs := e.PlanCacheStats(); cs.Hits < 3 {
		t.Fatalf("the second query of each shape should hit its template: %+v", cs)
	}
	st, err := e.Prepare(ctx, `SELECT n_regionkey, count(*) * ? FROM nation GROUP BY n_regionkey`)
	if err != nil {
		t.Fatal(err)
	}
	if g := labels(st.Schema()); !slices.Equal(g, []string{"n_regionkey", "(count(*)*?)"}) {
		t.Fatalf("a typed placeholder's label: %q", g)
	}
	st, err = e.Prepare(ctx, "SELECT (r_name = 'a\x00' OR r_regionkey > ?), (r_name LIKE 'b\x00' OR r_regionkey < ?) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	if g := labels(st.Schema()); !slices.Equal(g, []string{"((r_name='a\x00')OR(r_regionkey>?))", "(r_nameLIKE'b\x00'OR(r_regionkey<?))"}) {
		t.Fatalf("typed placeholders beside NUL bytes: %q", g)
	}
}
