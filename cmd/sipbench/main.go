// Command sipbench regenerates the paper's experiment figures (5–14) and
// the repo's recorded performance trajectory.
//
// Usage:
//
//	sipbench -figure 6                 # one figure
//	sipbench -all                      # every figure
//	sipbench -figure 13 -sf 0.1 -reps 5
//	sipbench -query Q2A -strategy Feed-forward -v
//	sipbench -joinbench                # write BENCH_joins.json
//	sipbench -filterbench              # record the blocked-vs-flat filter section
//	sipbench -spillbench               # record the memory-budget spill section
//	sipbench -serverbench              # record the wire-protocol serving section
//
// Output is the same series the paper's figures plot: per query, one
// running-time (or intermediate-state) value per execution strategy, with
// 95% confidence intervals across repetitions.
//
// -joinbench runs the join-heavy benchmark query once per strategy at the
// pinned SF 0.01, measures the partitioned join's scaling curve at
// P ∈ {1,2,4,8}, and appends one entry to the BENCH_joins.json trajectory
// (see -benchout): the file keeps one entry per PR instead of being
// overwritten, so `make benchdiff` can flag regressions against the
// previous entry. A pre-existing "microbench" section — the recorded
// seed-vs-current numbers from `go test -bench BenchmarkJoin
// ./internal/exec` — is preserved.
//
// Each strategy cell records two deliberately distinct rates:
//
//   - input_tuples_per_sec: base-table rows scanned per second
//     (Registry.TotalScanned), comparable across plan shapes and with the
//     microbench's input-tuples/sec.
//   - operator_tuples_per_sec: rows received across all operators per
//     second (Registry.TotalIn), the engine's processing volume; it shifts
//     with plan shape, so it is only comparable within one strategy's
//     history. Earlier revisions published this number as
//     "tuples_per_sec", which invited cross-metric comparisons.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	sip "repro"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/workload"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure number to regenerate (5-14)")
		all      = flag.Bool("all", false, "run every figure")
		sf       = flag.Float64("sf", 0.05, "TPC-H scale factor")
		reps     = flag.Int("reps", 3, "repetitions per cell (the paper used ≥5)")
		fpr      = flag.Float64("fpr", 0.05, "Bloom filter false-positive target")
		mbps     = flag.Float64("src", 1000, "source stream rate in MB/s (<0 = unpaced)")
		query    = flag.String("query", "", "run a single workload query (e.g. Q2A)")
		strategy = flag.String("strategy", "Feed-forward", "strategy for -query")
		verbose  = flag.Bool("v", false, "per-operator statistics")
		summary  = flag.Bool("summary", true, "print shape summary after each figure")

		joinbench   = flag.Bool("joinbench", false, "run the per-strategy join benchmark and write -benchout")
		exprbench   = flag.Bool("exprbench", false, "run the scalar-vs-vectorized expression microbench and record it in -benchout")
		stmtbench   = flag.Bool("stmtbench", false, "run the prepare-once/execute-many point-query microbench and record it in -benchout")
		filterbench = flag.Bool("filterbench", false, "run the blocked-vs-flat Bloom filter benchmark and record it in -benchout")
		spillbench  = flag.Bool("spillbench", false, "run the memory-budget spill benchmark (unbounded vs quarter vs sixteenth cap) and record it in -benchout")
		serverbench = flag.Bool("serverbench", false, "run the wire-protocol serving benchmark (adhoc vs cached vs prepared at 1/64/512 sessions) and record it in -benchout")
		benchout    = flag.String("benchout", "BENCH_joins.json", "output path for -joinbench / -exprbench / -stmtbench / -filterbench / -spillbench / -serverbench")
		overwrite   = flag.Bool("overwrite", false, "let -exprbench/-stmtbench/-filterbench/-spillbench/-serverbench replace a section already recorded on the latest entry (intra-PR re-measurement)")
	)
	flag.Parse()

	if *joinbench || *exprbench || *stmtbench || *filterbench || *spillbench || *serverbench {
		if *joinbench {
			if err := runJoinBench(*benchout, *reps); err != nil {
				fatal(err)
			}
		}
		if *exprbench {
			if err := runExprBench(*benchout, *reps, *overwrite); err != nil {
				fatal(err)
			}
		}
		if *stmtbench {
			if err := runStmtBench(*benchout, *reps, *overwrite); err != nil {
				fatal(err)
			}
		}
		if *filterbench {
			if err := runFilterBench(*benchout, *reps, *overwrite); err != nil {
				fatal(err)
			}
		}
		if *spillbench {
			if err := runSpillBench(*benchout, *reps, *overwrite); err != nil {
				fatal(err)
			}
		}
		if *serverbench {
			if err := runServerBench(*benchout, *reps, *overwrite); err != nil {
				fatal(err)
			}
		}
		return
	}

	runner := harness.New(harness.Config{
		ScaleFactor: *sf,
		Repetitions: *reps,
		FPR:         *fpr,
		SourceMBps:  *mbps,
		Verbose:     *verbose,
	})

	switch {
	case *query != "":
		spec, err := workload.ByID(*query)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		cell, err := runner.RunCell(spec, *strategy, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s / %s: time=%v ±%v state=%.2fMB rows=%d filters=%d pruned=%d (wall %v)\n",
			cell.Query, cell.Strategy, cell.Mean.Round(time.Millisecond),
			cell.CI95.Round(time.Millisecond), cell.StateMB, cell.Rows,
			cell.Filters, cell.Pruned, time.Since(start).Round(time.Millisecond))
		if *verbose {
			eng := runner.Engine(spec.Skewed)
			sql := spec.SQL(eng.Catalog())
			fmt.Println("\nSQL:")
			fmt.Println(sql)
		}

	case *all:
		for _, fig := range workload.Figures() {
			cells, err := runner.RunFigure(fig, os.Stdout)
			if err != nil {
				fatal(err)
			}
			if *summary {
				fmt.Println("shape summary:")
				harness.Summarize(cells, fig.Metric, os.Stdout)
				fmt.Println()
			}
		}

	case *figure != 0:
		fig, err := workload.FigureByNumber(*figure)
		if err != nil {
			fatal(err)
		}
		cells, err := runner.RunFigure(fig, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if *summary {
			fmt.Println("shape summary:")
			harness.Summarize(cells, fig.Metric, os.Stdout)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sipbench:", err)
	os.Exit(1)
}

// joinBenchSF pins the scale factor of the recorded join benchmark so the
// BENCH_joins.json trajectory stays comparable across PRs.
const joinBenchSF = 0.01

// joinBenchQuery is the join-heavy workload query the per-strategy numbers
// are recorded on (same query BenchmarkStrategies uses).
const joinBenchQuery = "Q2A"

// strategyBench is one strategy's measured cell in a BENCH_joins.json entry.
type strategyBench struct {
	Strategy             string  `json:"strategy"`
	NsPerOp              int64   `json:"ns_per_op"`
	AllocsPerOp          int64   `json:"allocs_per_op"`
	InputTuplesPerSec    float64 `json:"input_tuples_per_sec"`
	OperatorTuplesPerSec float64 `json:"operator_tuples_per_sec"`
	Rows                 int     `json:"rows"`
	// RepSpread is (slowest-fastest)/median across this cell's reps: the
	// run's own noise estimate. benchdiff widens its cross-entry tolerance
	// to the recorded spread (capped), so ambient load on a shared runner —
	// which this measures directly — cannot masquerade as a regression,
	// while quiet-machine entries keep the tight default gate.
	RepSpread float64 `json:"rep_spread"`
}

// scalingBench is one parallelism level of the partitioned-join scaling
// curve (the exec microbench's Unique shape, measured in-process).
type scalingBench struct {
	Parallelism       int     `json:"parallelism"`
	NsPerOp           int64   `json:"ns_per_op"`
	InputTuplesPerSec float64 `json:"input_tuples_per_sec"`
	SpeedupVsP1       float64 `json:"speedup_vs_p1"`
	RepSpread         float64 `json:"rep_spread"` // see strategyBench.RepSpread
}

// benchEntry is one PR's appended measurement in the trajectory.
type benchEntry struct {
	Generated       string          `json:"generated"`
	Machine         string          `json:"machine"`
	ScaleFactor     float64         `json:"scale_factor"`
	Query           string          `json:"query"`
	Reps            int             `json:"reps"`
	Strategies      []strategyBench `json:"strategies"`
	ParallelScaling []scalingBench  `json:"parallel_scaling,omitempty"`
}

// machineString identifies the measuring machine, including the CPU model
// when the platform exposes it: identical core counts on different silicon
// produce throughput numbers that must not be diffed against each other,
// and benchdiff keys its same-machine-only gates on this string.
func machineString() string {
	s := fmt.Sprintf("%d-core %s/%s %s", runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version())
	if model := cpuModel(); model != "" {
		s += " (" + model + ")"
	}
	return s
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// runJoinBench measures every strategy on the join-heavy query plus the
// partitioned join's P-scaling curve, and appends one entry to the JSON
// trajectory file, preserving the recorded "microbench" section and every
// previous entry.
func runJoinBench(outPath string, reps int) error {
	if reps < 1 {
		reps = 1
	}
	runner := harness.New(harness.Config{ScaleFactor: joinBenchSF, Repetitions: reps, SourceMBps: -1})
	eng := runner.Engine(false)
	spec, err := workload.ByID(joinBenchQuery)
	if err != nil {
		return err
	}
	sql := spec.SQL(eng.Catalog())

	var cells []strategyBench
	for _, s := range sip.AllStrategies() {
		// Warm-up run excluded from measurement (catalog caches, pools).
		if _, err := eng.Query(context.Background(), sql, sip.Options{Strategy: s, SourceBytesPerSec: 1 << 30}); err != nil {
			return err
		}
		// Per-rep measurement, reported as the median rep on every axis
		// (time, tuple rates, allocations): single-run noise on a loaded
		// machine easily exceeds the benchdiff tolerance, and the
		// trajectory gate is only as trustworthy as these numbers.
		type rep struct {
			d                  time.Duration
			opTuples, inTuples int64
			allocs             int64
		}
		repsRun := make([]rep, reps)
		var rows int64
		for i := 0; i < reps; i++ {
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := eng.Query(context.Background(), sql, sip.Options{Strategy: s, SourceBytesPerSec: 1 << 30})
			if err != nil {
				return err
			}
			d := time.Since(start)
			runtime.ReadMemStats(&ms1)
			repsRun[i] = rep{d: d, opTuples: res.TuplesProcessed, inTuples: res.TuplesScanned,
				allocs: int64(ms1.Mallocs - ms0.Mallocs)}
			rows = int64(len(res.Rows))
		}
		sort.Slice(repsRun, func(i, k int) bool { return repsRun[i].d < repsRun[k].d })
		med := repsRun[len(repsRun)/2]
		cells = append(cells, strategyBench{
			Strategy:             s.String(),
			NsPerOp:              med.d.Nanoseconds(),
			AllocsPerOp:          med.allocs,
			InputTuplesPerSec:    float64(med.inTuples) / med.d.Seconds(),
			OperatorTuplesPerSec: float64(med.opTuples) / med.d.Seconds(),
			Rows:                 int(rows),
			RepSpread:            spreadFrac(repsRun[0].d, repsRun[len(repsRun)-1].d, med.d),
		})
		c := cells[len(cells)-1]
		fmt.Printf("%-14s %12v/op %10d allocs/op %12.0f input-tuples/sec %12.0f op-tuples/sec\n",
			s.String(), time.Duration(c.NsPerOp).Round(time.Microsecond),
			c.AllocsPerOp, c.InputTuplesPerSec, c.OperatorTuplesPerSec)
	}

	scaling, err := runParallelScaling(reps)
	if err != nil {
		return err
	}

	entry := benchEntry{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		Machine:         machineString(),
		ScaleFactor:     joinBenchSF,
		Query:           joinBenchQuery,
		Reps:            reps,
		Strategies:      cells,
		ParallelScaling: scaling,
	}

	// Load the existing trajectory: preserve the microbench section and all
	// previous entries, migrating the pre-trajectory layout (a single
	// top-level strategies list whose tuples_per_sec was operator volume)
	// into entry form.
	doc := map[string]any{}
	var entries []any
	if old, err := os.ReadFile(outPath); err == nil {
		var prev map[string]any
		if json.Unmarshal(old, &prev) == nil {
			if mb, ok := prev["microbench"]; ok {
				doc["microbench"] = mb
			}
			if es, ok := prev["entries"].([]any); ok {
				entries = es
			} else if legacy, ok := prev["strategies"].([]any); ok {
				for _, c := range legacy {
					if cell, ok := c.(map[string]any); ok {
						if tps, ok := cell["tuples_per_sec"]; ok {
							cell["operator_tuples_per_sec"] = tps
							delete(cell, "tuples_per_sec")
						}
					}
				}
				entries = append(entries, map[string]any{
					"generated":    prev["generated"],
					"scale_factor": prev["scale_factor"],
					"query":        prev["query"],
					"reps":         prev["reps"],
					"strategies":   legacy,
				})
			}
		}
	}
	entries = append(entries, entry)
	doc["entries"] = entries

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("appended entry %d to %s\n", len(entries), outPath)
	return nil
}

// spreadFrac is the (slowest-fastest)/median rep-time spread recorded on
// each measured cell as its noise estimate.
func spreadFrac(fastest, slowest, median time.Duration) float64 {
	if median <= 0 {
		return 0
	}
	return float64(slowest-fastest) / float64(median)
}

// scalingN sizes the scaling measurement to the exec microbench's Unique
// shape: scalingN tuples per side over as many distinct keys, one match
// per tuple.
const scalingN = 1 << 15

// runParallelScaling measures the symmetric join end to end at P ∈
// {1,2,4,8} partitions on the Unique shape and reports input-tuples/sec
// per level plus the speedup over P=1. On machines with fewer cores than
// P the curve flattens; Machine records the core count for that reason.
func runParallelScaling(reps int) ([]scalingBench, error) {
	lrows := make([]types.Tuple, scalingN)
	rrows := make([]types.Tuple, scalingN)
	for i := 0; i < scalingN; i++ {
		lrows[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i))}
		rrows[i] = types.Tuple{types.Int(int64(scalingN - 1 - i)), types.Int(int64(i))}
	}
	sch := func(b string) *types.Schema {
		return types.NewSchema(
			types.Column{Table: b, Name: "a", Kind: types.KindInt},
			types.Column{Table: b, Name: b, Kind: types.KindInt},
		)
	}
	var out []scalingBench
	for _, p := range []int{1, 2, 4, 8} {
		run := func() int {
			l := &exec.Scan{Name: "l", Rows: lrows, Sch: sch("x")}
			r := &exec.Scan{Name: "r", Rows: rrows, Sch: sch("y")}
			j := exec.NewHashJoin("scale", l, r, []int{0}, []int{0}, exec.AllCols(l, r), nil)
			ctx := exec.NewContext(stats.NewRegistry(), nil)
			ctx.Parallelism = p
			rows, err := exec.Run(ctx, j)
			if err != nil {
				fatal(err)
			}
			return len(rows)
		}
		run() // warm-up
		times := make([]time.Duration, reps)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if rows := run(); rows != scalingN {
				return nil, fmt.Errorf("parallel scaling P=%d produced %d rows, want %d", p, rows, scalingN)
			}
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(i, k int) bool { return times[i] < times[k] })
		med := times[len(times)/2]
		cell := scalingBench{
			Parallelism:       p,
			NsPerOp:           med.Nanoseconds(),
			InputTuplesPerSec: float64(2*scalingN) / med.Seconds(),
			RepSpread:         spreadFrac(times[0], times[len(times)-1], med),
		}
		if len(out) > 0 {
			cell.SpeedupVsP1 = cell.InputTuplesPerSec / out[0].InputTuplesPerSec
		} else {
			cell.SpeedupVsP1 = 1
		}
		out = append(out, cell)
		fmt.Printf("parallel join  P=%d %12v/op %12.0f input-tuples/sec %5.2fx\n",
			p, time.Duration(cell.NsPerOp).Round(time.Microsecond), cell.InputTuplesPerSec, cell.SpeedupVsP1)
	}
	return out, nil
}
