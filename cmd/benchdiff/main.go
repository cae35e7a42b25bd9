// Command benchdiff compares the last two entries of the BENCH_joins.json
// trajectory and fails (exit 1) when any strategy's throughput regressed by
// more than the tolerance against the previous entry. It is the CI gate
// behind `make benchdiff`: because sipbench -joinbench appends an entry per
// PR instead of overwriting, the diff is always PR-over-PR.
//
// Usage:
//
//	benchdiff [-tolerance 0.10] [BENCH_joins.json]
//
// Both recorded rates are checked per strategy: input_tuples_per_sec (the
// plan-shape-independent volume) and operator_tuples_per_sec; for the
// strategy and parallel-scaling cells the tolerance widens to the larger of
// the two entries' recorded per-cell rep spreads (capped at 50%), so
// co-tenant load on a shared runner — measured directly by the reps'
// scatter — cannot flag a phantom regression. The
// expression microbench section (sipbench -exprbench) is gated the same
// way: scalar and vectorized tuples/s per shape; so is the spill section
// (sipbench -spillbench), whose intra-entry gates require the quarter-cap
// run to have actually spilled and to finish within 5× of the unbounded
// wall time, and the wire-serving section (sipbench -serverbench), whose
// intra-entry floor requires prepared execution over the wire to beat
// cache-disabled ad-hoc by ≥1.25× at 64 sessions. Entries with fewer than
// two data points pass trivially, as do strategy names present in only one
// entry. Entries recorded on different machines (the machine string
// includes core count and CPU model) are printed for reference but do not
// gate: throughput across different silicon is not a regression signal.
// Intra-entry gates, which compare cells measured in the same run, always
// apply.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

type strategyCell struct {
	Strategy             string  `json:"strategy"`
	InputTuplesPerSec    float64 `json:"input_tuples_per_sec"`
	OperatorTuplesPerSec float64 `json:"operator_tuples_per_sec"`
	RepSpread            float64 `json:"rep_spread"`
}

type scalingCell struct {
	Parallelism       int     `json:"parallelism"`
	InputTuplesPerSec float64 `json:"input_tuples_per_sec"`
	RepSpread         float64 `json:"rep_spread"`
}

type exprCell struct {
	Name               string  `json:"name"`
	ScalarTuplesPerSec float64 `json:"scalar_tuples_per_sec"`
	VectorTuplesPerSec float64 `json:"vector_tuples_per_sec"`
}

type stmtCell struct {
	Name        string  `json:"name"`
	AdhocQPS    float64 `json:"adhoc_queries_per_sec"`
	CachedQPS   float64 `json:"cached_queries_per_sec"`
	PreparedQPS float64 `json:"prepared_queries_per_sec"`
}

type filterCell struct {
	Name              string  `json:"name"`
	BuildTuplesPerSec float64 `json:"build_tuples_per_sec"`
	MergeTuplesPerSec float64 `json:"merge_tuples_per_sec"`
	ProbeTuplesPerSec float64 `json:"probe_tuples_per_sec"`
	WorkingSetBytesP8 int64   `json:"working_set_bytes_p8"`
}

type spillCell struct {
	Cap                string  `json:"cap"`
	BudgetBytes        int64   `json:"budget_bytes"`
	InputTuplesPerSec  float64 `json:"input_tuples_per_sec"`
	SpillEvents        int64   `json:"spill_events"`
	Rows               int     `json:"rows"`
	SlowdownVsUncapped float64 `json:"slowdown_vs_uncapped"`
}

type serverCell struct {
	Sessions        int     `json:"sessions"`
	AdhocQPS        float64 `json:"adhoc_queries_per_sec"`
	CachedQPS       float64 `json:"cached_queries_per_sec"`
	PreparedQPS     float64 `json:"prepared_queries_per_sec"`
	SpeedupPrepared float64 `json:"speedup_prepared_vs_adhoc"`
	RepSpread       float64 `json:"rep_spread"`
}

type entry struct {
	Generated       string         `json:"generated"`
	Machine         string         `json:"machine"`
	Strategies      []strategyCell `json:"strategies"`
	ParallelScaling []scalingCell  `json:"parallel_scaling"`
	ExprMicrobench  []exprCell     `json:"expr_microbench"`
	StmtMicrobench  []stmtCell     `json:"stmt_microbench"`
	FilterBench     []filterCell   `json:"filter_bench"`
	SpillBench      []spillCell    `json:"spill_bench"`
	ServerBench     []serverCell   `json:"server_bench"`
}

type trajectory struct {
	Entries []entry `json:"entries"`
}

func main() {
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional throughput drop vs the previous entry")
	flag.Parse()
	path := "BENCH_joins.json"
	if flag.NArg() > 0 {
		path = flag.Arg(0)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var tr trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if len(tr.Entries) < 2 {
		fmt.Printf("benchdiff: %s has %d entries, nothing to compare\n", path, len(tr.Entries))
		return
	}
	prev, cur := tr.Entries[len(tr.Entries)-2], tr.Entries[len(tr.Entries)-1]
	// Throughput on different silicon is not comparable: when the machine
	// string changes between entries the PR-over-PR diffs are printed for
	// reference but do not gate (the intra-entry floors still do). The string includes the CPU model where available, so
	// same-image runs on a new host are caught, not just core-count changes.
	sameMachine := prev.Machine == "" || cur.Machine == "" || prev.Machine == cur.Machine
	if !sameMachine {
		fmt.Printf("benchdiff: note: machines differ (%q vs %q); cross-entry throughput shown for reference only\n",
			prev.Machine, cur.Machine)
	}

	prevBy := map[string]strategyCell{}
	for _, c := range prev.Strategies {
		prevBy[c.Strategy] = c
	}

	failed := false
	// diff compares against the previous entry; it gates only when both
	// entries come from the same machine.
	diff := func(tol float64, strategy, metric string, old, new float64) {
		if old <= 0 || new <= 0 {
			return // metric absent in one of the entries (pre-split layout)
		}
		change := new/old - 1
		status := "ok"
		if change < -tol {
			if sameMachine {
				status = "REGRESSION"
				failed = true
			} else {
				status = "machine-changed"
			}
		}
		fmt.Printf("%-14s %-24s %14.0f -> %14.0f  %+6.1f%%  %s\n",
			strategy, metric, old, new, change*100, status)
	}
	check := func(strategy, metric string, old, new float64) {
		diff(*tolerance, strategy, metric, old, new)
	}
	// noisy gates like check but widens the tolerance to the larger of the
	// two entries' recorded rep spreads (capped at 50%): the same machine
	// string under heavy co-tenant load measures tens of percent below its
	// quiet-hour self, and the spread — recorded per cell at measurement
	// time — is direct evidence of that noise. A real regression still
	// fails: it shifts the median beyond what the reps' own scatter covers.
	noisy := func(spread float64, strategy, metric string, old, new float64) {
		tol := *tolerance
		if spread > tol {
			tol = math.Min(spread, 0.5)
		}
		diff(tol, strategy, metric, old, new)
	}
	for _, c := range cur.Strategies {
		p, ok := prevBy[c.Strategy]
		if !ok {
			continue
		}
		spread := math.Max(p.RepSpread, c.RepSpread)
		noisy(spread, c.Strategy, "input_tuples_per_sec", p.InputTuplesPerSec, c.InputTuplesPerSec)
		noisy(spread, c.Strategy, "operator_tuples_per_sec", p.OperatorTuplesPerSec, c.OperatorTuplesPerSec)
	}
	// The P-scaling curve is machine-bound (it measures cross-core
	// speedup), so diff it only between entries from the same machine.
	if prev.Machine == cur.Machine {
		prevScale := map[int]scalingCell{}
		for _, c := range prev.ParallelScaling {
			prevScale[c.Parallelism] = c
		}
		for _, c := range cur.ParallelScaling {
			if p, ok := prevScale[c.Parallelism]; ok {
				noisy(math.Max(p.RepSpread, c.RepSpread),
					fmt.Sprintf("join P=%d", c.Parallelism), "input_tuples_per_sec",
					p.InputTuplesPerSec, c.InputTuplesPerSec)
			}
		}
	} else if len(cur.ParallelScaling) > 0 {
		fmt.Println("benchdiff: note: parallel_scaling not compared across different machines")
	}
	// Expression microbench: gate both evaluation paths per shape at the
	// same tolerance. Cells absent from either entry pass trivially (the
	// section first appears with the vectorized-eval PR).
	prevExpr := map[string]exprCell{}
	for _, c := range prev.ExprMicrobench {
		prevExpr[c.Name] = c
	}
	for _, c := range cur.ExprMicrobench {
		if p, ok := prevExpr[c.Name]; ok {
			check("expr:"+c.Name, "scalar_tuples_per_sec", p.ScalarTuplesPerSec, c.ScalarTuplesPerSec)
			check("expr:"+c.Name, "vector_tuples_per_sec", p.VectorTuplesPerSec, c.VectorTuplesPerSec)
		}
	}
	// Prepared-statement microbench (sipbench -stmtbench): gate all three
	// execution paths per shape; cells absent from either entry pass
	// trivially (the section first appears with the streaming-API PR).
	prevStmt := map[string]stmtCell{}
	for _, c := range prev.StmtMicrobench {
		prevStmt[c.Name] = c
	}
	for _, c := range cur.StmtMicrobench {
		if p, ok := prevStmt[c.Name]; ok {
			check("stmt:"+c.Name, "adhoc_queries_per_sec", p.AdhocQPS, c.AdhocQPS)
			check("stmt:"+c.Name, "cached_queries_per_sec", p.CachedQPS, c.CachedQPS)
			check("stmt:"+c.Name, "prepared_queries_per_sec", p.PreparedQPS, c.PreparedQPS)
		}
	}
	// Filter benchmark (sipbench -filterbench). Cross-entry: the three
	// kernel rates per variant, same-machine only. Intra-entry, always
	// gating: the blocked-batch probe site must never fall below the live
	// flat-scalar site, must stay at least 1.5× above the frozen pre-PR
	// probe site (probe-site-pr6 — the recorded entries show ~2-2.5×; the
	// floor leaves noise margin so a noisy shared runner cannot spuriously
	// block an unrelated PR), and its P=8 working set must stay at or below
	// 1/4 of the flat full-geometry copies — enforced even on the section's
	// first appearance. The flat-scalar floor is 1×, not higher: the same
	// shared-encode fast path that feeds the batch kernel also feeds the
	// scalar site, so their gap measures batching alone.
	if prev.Machine == cur.Machine {
		prevFilter := map[string]filterCell{}
		for _, c := range prev.FilterBench {
			prevFilter[c.Name] = c
		}
		for _, c := range cur.FilterBench {
			if p, ok := prevFilter[c.Name]; ok {
				check("filter:"+c.Name, "build_tuples_per_sec", p.BuildTuplesPerSec, c.BuildTuplesPerSec)
				check("filter:"+c.Name, "probe_tuples_per_sec", p.ProbeTuplesPerSec, c.ProbeTuplesPerSec)
				check("filter:"+c.Name, "merge_tuples_per_sec", p.MergeTuplesPerSec, c.MergeTuplesPerSec)
			}
		}
	} else if len(cur.FilterBench) > 0 {
		fmt.Println("benchdiff: note: filter_bench not compared across different machines")
	}
	var flatF, blockedF, pr6F filterCell
	for _, c := range cur.FilterBench {
		switch c.Name {
		case "flat-scalar":
			flatF = c
		case "blocked-batch":
			blockedF = c
		case "probe-site-pr6":
			pr6F = c
		}
	}
	if flatF.ProbeTuplesPerSec > 0 && blockedF.ProbeTuplesPerSec > 0 {
		ratio := blockedF.ProbeTuplesPerSec / flatF.ProbeTuplesPerSec
		status := "ok"
		if ratio < 1 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14.0f vs %11.0f  %5.2fx  %s\n",
			"filter intra", "blocked>=flat probe", flatF.ProbeTuplesPerSec,
			blockedF.ProbeTuplesPerSec, ratio, status)
	}
	if pr6F.ProbeTuplesPerSec > 0 && blockedF.ProbeTuplesPerSec > 0 {
		ratio := blockedF.ProbeTuplesPerSec / pr6F.ProbeTuplesPerSec
		status := "ok"
		if ratio < 1.5 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14.0f vs %11.0f  %5.2fx  %s\n",
			"filter intra", "batch>=1.5x pr6 site", pr6F.ProbeTuplesPerSec,
			blockedF.ProbeTuplesPerSec, ratio, status)
	}
	if flatF.WorkingSetBytesP8 > 0 && blockedF.WorkingSetBytesP8 > 0 {
		ratio := float64(flatF.WorkingSetBytesP8) / float64(blockedF.WorkingSetBytesP8)
		status := "ok"
		if ratio < 4 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14d vs %11d  %5.2fx  %s\n",
			"filter intra", "ws@P=8 <= flat/4 bytes", flatF.WorkingSetBytesP8,
			blockedF.WorkingSetBytesP8, ratio, status)
	}
	// Spill benchmark (sipbench -spillbench). Cross-entry: capped throughput
	// per cap name, same-machine only. Intra-entry, always gating: the
	// quarter-cap run must have actually evicted buckets (a spill section
	// whose capped run never spilled measures nothing) and must complete
	// within 5× of the unbounded wall time — out-of-core degradation has to
	// stay graceful, not cliff into thrashing.
	if prev.Machine == cur.Machine {
		prevSpill := map[string]spillCell{}
		for _, c := range prev.SpillBench {
			prevSpill[c.Cap] = c
		}
		for _, c := range cur.SpillBench {
			if p, ok := prevSpill[c.Cap]; ok {
				check("spill:"+c.Cap, "input_tuples_per_sec", p.InputTuplesPerSec, c.InputTuplesPerSec)
			}
		}
	} else if len(cur.SpillBench) > 0 {
		fmt.Println("benchdiff: note: spill_bench not compared across different machines")
	}
	var quarterSpill spillCell
	for _, c := range cur.SpillBench {
		if c.Cap == "quarter" {
			quarterSpill = c
		}
	}
	if quarterSpill.Cap != "" {
		status := "ok"
		if quarterSpill.SpillEvents == 0 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14d evictions %24s  %s\n",
			"spill intra", "quarter cap spilled", quarterSpill.SpillEvents, "", status)
		status = "ok"
		if quarterSpill.SlowdownVsUncapped > 5 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14.2fx slowdown %23s  %s\n",
			"spill intra", "quarter cap <= 5x wall", quarterSpill.SlowdownVsUncapped, "", status)
	}
	// Server benchmark (sipbench -serverbench). Cross-entry: the three wire
	// paths' q/s per session level, same-machine only (the wire round trip is
	// syscall- and core-bound) and spread-widened — the end-to-end TCP path
	// on a single shared core is the noisiest section in the file. Intra-entry,
	// always gating: prepared execution must beat cache-disabled ad-hoc by at
	// least 1.25x at 64 sessions. The floor is deliberately below the
	// in-process stmt microbench's 3x+: over TCP the ratio is
	// (plan+exec+wire)/(exec+wire), and on a single-core container the
	// four-syscall round trip (~15us) outweighs the planning tax (~12us),
	// capping honest runs at 1.5-1.9x. 1.25x leaves noise margin below the
	// observed minimum while still failing any change that breaks statement
	// reuse over the wire.
	if prev.Machine == cur.Machine {
		prevServer := map[int]serverCell{}
		for _, c := range prev.ServerBench {
			prevServer[c.Sessions] = c
		}
		for _, c := range cur.ServerBench {
			if p, ok := prevServer[c.Sessions]; ok {
				spread := math.Max(p.RepSpread, c.RepSpread)
				name := fmt.Sprintf("server S=%d", c.Sessions)
				noisy(spread, name, "adhoc_queries_per_sec", p.AdhocQPS, c.AdhocQPS)
				noisy(spread, name, "cached_queries_per_sec", p.CachedQPS, c.CachedQPS)
				noisy(spread, name, "prepared_queries_per_sec", p.PreparedQPS, c.PreparedQPS)
			}
		}
	} else if len(cur.ServerBench) > 0 {
		fmt.Println("benchdiff: note: server_bench not compared across different machines")
	}
	for _, c := range cur.ServerBench {
		if c.Sessions != 64 || c.AdhocQPS <= 0 || c.PreparedQPS <= 0 {
			continue
		}
		ratio := c.PreparedQPS / c.AdhocQPS
		status := "ok"
		if ratio < 1.25 {
			status = "FLOOR VIOLATED"
			failed = true
		}
		fmt.Printf("%-14s %-24s %14.0f vs %11.0f  %5.2fx  %s\n",
			"server intra", "prepared>=1.25x adhoc", c.AdhocQPS, c.PreparedQPS, ratio, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: throughput regressed more than %.0f%% vs entry %s\n",
			*tolerance*100, prev.Generated)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: entry %s vs %s within %.0f%% tolerance\n", cur.Generated, prev.Generated, *tolerance*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
