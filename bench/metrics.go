package main

import (
	"fmt"
	"strings"

	sip "repro"
)

// metricDef names one reported metric. These tables are the single source
// of names and units: the runner refuses to print a result that does not
// carry exactly these, and bench_test.go holds BENCHMARK.json to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the engine sees: SQL text in over TCP, rows
// and a Done frame out. Every workload reports all of them from the timed
// run (tracing off).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"peak_state_mb", "MB", "lower", 0.10},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"wire_bytes_per_query", "B", "lower", 0.01},
}

// tableIQueries and the four strategies span the 20 cells of tableI_mix.
var tableIQueries = []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"}

// strategySlug is the lower-case strategy name used inside metric names.
func strategySlug(s sip.Strategy) string {
	return strings.ToLower(strings.ReplaceAll(s.String(), "-", ""))
}

// opClasses are the operator classes of stats.Registry.Ops() that get
// their own in/out row counters.
var opClasses = []string{"scan", "ship", "filter", "join", "agg", "distinct"}

// perLayer lists the traced run's metrics, named <module>.<metric>. A
// metric that does not apply to a workload (the Table I cells outside
// tableI_mix, spill.* without a memory budget) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		// parts of setup_s
		{"tpch.generate_s", "s", "lower", 0},
		{"sip.reference_s", "s", "lower", 0},
		{"sip.warmup_s", "s", "lower", 0},
		// front end, direct calls on the workload's own SQL
		{"sqlparser.normalize_us", "us", "lower", 0},
		{"sqlparser.parse_us", "us", "lower", 0},
		{"plan.bind_us", "us", "lower", 0},
		{"magic.rewrite_us", "us", "lower", 0},
		{"optimizer.build_us", "us", "lower", 0},
		{"optimizer.instantiate_us", "us", "lower", 0},
		{"sip.prepare_us", "us", "lower", 0},
		// engine, in process
		{"sip.plancache_hit_ratio", "ratio", "higher", 0},
		{"sip.exec_inproc_p50_ms", "ms", "lower", 0},
		{"sip.first_row_inproc_ms", "ms", "lower", 0},
		{"sip.adhoc_inproc_p50_ms", "ms", "lower", 0},
		// serving tier
		{"server.tax_ms", "ms", "lower", 0},
		{"server.first_row_ms", "ms", "lower", 0},
		{"server.bytes_per_row", "B", "lower", 0},
		{"server.reads_per_query", "count", "lower", 0},
		{"server.queries_ok", "count", "higher", 0},
		{"server.queries_err", "count", "lower", 0},
		// executor
		{"exec.scan_rows", "count", "lower", 0},
		{"exec.operator_rows", "count", "lower", 0},
		{"exec.scan_rows_per_s", "1/s", "higher", 0},
		{"exec.allocs_per_query", "count", "lower", 0},
		{"exec.alloc_mb_per_query", "MB", "lower", 0},
		{"exec.peak_mem_mb", "MB", "lower", 0},
		{"exec.filterbank_probe_ns_per_row", "ns", "lower", 0},
		{"exec.spill_slowdown", "ratio", "lower", 0},
		// AIP
		{"core.filters_created", "count", "higher", 0},
		{"core.filters_injected", "count", "higher", 0},
		{"core.tuples_pruned", "count", "higher", 0},
		{"core.pruned_share", "ratio", "higher", 0},
		{"filter.bytes", "B", "lower", 0},
		{"filter.peak_working_bytes", "B", "lower", 0},
		// kernels
		{"bloom.build_ns_per_key", "ns", "lower", 0},
		{"bloom.probe_ns_per_key", "ns", "lower", 0},
		{"bloom.observed_fpr", "ratio", "lower", 0},
		{"types.keytable_insert_ns", "ns", "lower", 0},
		{"types.keytable_lookup_ns", "ns", "lower", 0},
		{"types.hash_intkey_ns", "ns", "lower", 0},
		{"expr.filter_ns_per_row", "ns", "lower", 0},
		// scheduler (zero while chan is the default engine)
		{"sched.morsels", "count", "lower", 0},
		{"sched.steals", "count", "lower", 0},
		{"sched.worker_busy_share", "ratio", "higher", 0},
		// spill
		{"spill.bytes_per_query", "B", "lower", 0},
		{"spill.events_per_query", "count", "lower", 0},
		{"spill.write_mb_per_s", "MB/s", "higher", 0},
		{"spill.read_mb_per_s", "MB/s", "higher", 0},
		// the benchmark itself
		{"bench.trace_overhead_share", "ratio", "lower", 0},
		{"bench.trace_unattributed_share", "ratio", "lower", 0},
		{"bench.samples", "count", "higher", 0},
		{"bench.failed_share", "ratio", "lower", 0},
		{"bench.loadavg_start", "count", "lower", 0},
	}
	for _, c := range opClasses {
		m = append(m,
			metricDef{"exec." + c + "_in_rows", "count", "lower", 0},
			metricDef{"exec." + c + "_out_rows", "count", "lower", 0})
	}
	for _, q := range tableIQueries {
		for _, s := range sip.AllStrategies() {
			m = append(m,
				metricDef{cellMetric(q, s, "ms"), "ms", "lower", 0},
				metricDef{cellMetric(q, s, "state_mb"), "MB", "lower", 0})
		}
	}
	return m
}

// cellMetric names one Table I figure cell, e.g. sip.cell.Q4A.costbased_ms.
func cellMetric(query string, s sip.Strategy, suffix string) string {
	return fmt.Sprintf("sip.cell.%s.%s_%s", query, strategySlug(s), suffix)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and is checked against a definition
// table before it is printed.
type metricSet map[string]float64

// report turns the set into the output form, failing when a defined metric
// is missing or an undefined one was recorded — a renamed metric must not
// silently vanish from the contract.
func (s metricSet) report(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := s[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(s) != len(defs) {
		for name := range s {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined", name)
			}
		}
	}
	return out, nil
}
