package sip

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRunningExample executes the paper's Section II motivating query:
// parts available for much less than retail whose stock is low relative to
// sales. It exercises derived tables, grouping, DISTINCT, and multi-way
// correlation — the plan of the paper's Figure 1.
func TestRunningExample(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT DISTINCT p_partkey FROM part p, partsupp ps1,
		  (SELECT ps_partkey AS partkey, SUM(ps_availqty) AS avail
		   FROM partsupp ps2 GROUP BY ps_partkey) avail,
		  (SELECT l_partkey AS partkey, SUM(l_quantity) AS numsold
		   FROM lineitem l WHERE l_receiptdate > '1995-1-1'
		   GROUP BY l_partkey) sold
		WHERE p_partkey = ps_partkey
		  AND p_partkey = avail.partkey
		  AND p_partkey = sold.partkey
		  AND 10 * avail < numsold
		  AND 2 * ps_supplycost < p_retailprice`
	strategiesAgree(t, e, q)
	// AIP must fire here: the DISTINCT/top-join state and both aggregation
	// states are all usable AIP sources (Examples 3.1/3.2).
	res, err := e.Query(context.Background(), q, Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	if res.FiltersCreated == 0 {
		t.Fatal("running example created no AIP sets")
	}
}

func TestDelayedTablesOption(t *testing.T) {
	e := testEngine(t)
	const q = `SELECT count(*) FROM partsupp WHERE ps_availqty > 100`
	fast, err := e.Query(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.Query(context.Background(), q, Options{
		DelayedTables: []string{"partsupp"},
		Delay:         &DelayConfig{Initial: 80 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration < 70*time.Millisecond {
		t.Fatalf("delay not applied: %v", slow.Duration)
	}
	if canonValue(fast.Rows[0][0]) != canonValue(slow.Rows[0][0]) {
		t.Fatal("delay changed the answer")
	}
}

func TestDefaultDelayMatchesPaper(t *testing.T) {
	var o Options
	d := o.delay()
	if d.Initial != 100*time.Millisecond || d.EveryN != 1000 || d.Pause != 5*time.Millisecond {
		t.Fatalf("default delay = %+v, want the §VI-B parameters", d)
	}
}

func TestRemoteExecution(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT s_name FROM supplier, partsupp
		WHERE s_suppkey = ps_suppkey AND s_nation = 'FRANCE' AND ps_availqty < 500`
	local, err := e.Query(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := e.Query(context.Background(), q, Options{
		RemoteTables: map[string]int{"partsupp": 1},
		Topology:     NewTopology(&Link{BytesPerSec: Mbps(400)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if remote.NetworkBytes == 0 {
		t.Fatal("remote scan shipped no bytes")
	}
	if len(local.Rows) != len(remote.Rows) {
		t.Fatalf("remote execution changed answers: %d vs %d", len(local.Rows), len(remote.Rows))
	}
}

func TestRemoteWithCostBasedShipsFilters(t *testing.T) {
	e := testEngine(t)
	// Selective part side + remote partsupp: the distributed AIP manager
	// should ship a filter and cut the bytes crossing the link.
	const q = `
		SELECT p_name FROM part, partsupp
		WHERE p_partkey = ps_partkey AND p_size = 1 AND p_type LIKE '%TIN'`
	run := func(s Strategy) *Result {
		res, err := e.Query(context.Background(), q, Options{
			Strategy:     s,
			RemoteTables: map[string]int{"partsupp": 1},
			Topology:     NewTopology(&Link{BytesPerSec: Mbps(800)}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(Baseline)
	cb := run(CostBased)
	if len(base.Rows) != len(cb.Rows) {
		t.Fatalf("distributed AIP changed answers: %d vs %d", len(base.Rows), len(cb.Rows))
	}
	if cb.TuplesPruned == 0 {
		t.Fatal("no remote pruning happened")
	}
	if cb.NetworkBytes >= base.NetworkBytes {
		t.Fatalf("filter shipping did not reduce traffic: %d vs %d",
			cb.NetworkBytes, base.NetworkBytes)
	}
}

func TestHashSetSummaryOption(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT s_name FROM supplier, partsupp
		WHERE s_suppkey = ps_suppkey AND s_nation = 'FRANCE'`
	res, err := e.Query(context.Background(), q, Options{Strategy: FeedForward, Summary: SummaryHashSet})
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.Query(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(base.Rows) {
		t.Fatal("hash-set summaries changed answers")
	}
}

func TestFPROption(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT s_name FROM supplier, partsupp
		WHERE s_suppkey = ps_suppkey AND s_nation = 'FRANCE'`
	for _, fpr := range []float64{0.01, 0.05, 0.2} {
		res, err := e.Query(context.Background(), q, Options{Strategy: FeedForward, FPR: fpr})
		if err != nil {
			t.Fatalf("fpr %v: %v", fpr, err)
		}
		base := canon(mustRows(t, e, q, Options{}))
		got := canon(res.Rows)
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("fpr %v changed answers", fpr)
			}
		}
	}
}

func TestCostParamsOption(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT s_name FROM supplier, partsupp
		WHERE s_suppkey = ps_suppkey AND s_nation = 'FRANCE'`
	eager := DefaultCostParams()
	eager.Fixed = 0
	res, err := e.Query(context.Background(), q, Options{Strategy: CostBased, Cost: &eager})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	starved := DefaultCostParams()
	starved.Fixed = 1e12
	res2, err := e.Query(context.Background(), q, Options{Strategy: CostBased, Cost: &starved})
	if err != nil {
		t.Fatal(err)
	}
	if res2.FiltersCreated != 0 {
		t.Fatal("an enormous fixed cost must suppress all filters")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Query(context.Background(), "SELEKT broken", Options{}); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := e.Query(context.Background(), "SELECT missing_col FROM part", Options{}); err == nil {
		t.Fatal("bind error not surfaced")
	}
	if _, err := e.Explain("nope"); err == nil {
		t.Fatal("explain must surface parse errors")
	}
}

func TestFormatRows(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(context.Background(), "SELECT r_regionkey, r_name FROM region", Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatRows(res.Schema, res.Rows, 3)
	if !strings.Contains(out, "r_name") || !strings.Contains(out, "more rows") {
		t.Fatalf("FormatRows output:\n%s", out)
	}
	full := FormatRows(res.Schema, res.Rows, 0)
	if strings.Contains(full, "more rows") {
		t.Fatal("limit 0 must print everything")
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		Baseline: "Baseline", Magic: "Magic",
		FeedForward: "Feed-forward", CostBased: "Cost-based",
	}
	for s, n := range want {
		if s.String() != n {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
	if len(AllStrategies()) != 4 {
		t.Fatal("AllStrategies must list all four")
	}
}

// TestParseStrategy: ParseStrategy inverts String for every strategy and
// rejects any other name.
func TestParseStrategy(t *testing.T) {
	for _, s := range AllStrategies() {
		if got, err := ParseStrategy(s.String()); err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	for _, name := range []string{"", "feed-forward", "Cost-Based", "Magic "} {
		if _, err := ParseStrategy(name); err == nil {
			t.Fatalf("ParseStrategy(%q) accepted it", name)
		}
	}
}

func TestStatsExposed(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(context.Background(), `SELECT count(*) FROM nation`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || !strings.Contains(res.Stats.Report(), "scan") {
		t.Fatal("per-operator stats not exposed")
	}
	if res.Schema.Len() != 1 {
		t.Fatal("result schema missing")
	}
}

// TestConcurrentQueries runs several queries against one engine in
// parallel — the multi-query memory scenario the paper's space results
// motivate ("memory savings may be particularly important in a system that
// executes multiple queries simultaneously").
func TestConcurrentQueries(t *testing.T) {
	e := testEngine(t)
	const q = `
		SELECT n_name, count(*) FROM supplier, nation
		WHERE s_nationkey = n_nationkey GROUP BY n_name`
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		s := AllStrategies()[i%4]
		go func(s Strategy) {
			_, err := e.Query(context.Background(), q, Options{Strategy: s})
			errc <- err
		}(s)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
