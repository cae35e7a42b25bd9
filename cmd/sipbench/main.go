// Command sipbench regenerates the paper's experiment figures (5–14).
//
// Usage:
//
//	sipbench -figure 6                 # one figure
//	sipbench -all                      # every figure
//	sipbench -figure 13 -sf 0.1 -reps 5
//	sipbench -query Q2A -strategy Feed-forward -v
//
// Output is the same series the paper's figures plot: per query, one
// running-time (or intermediate-state) value per execution strategy, with
// 95% confidence intervals across repetitions. -query measures one cell;
// with -v it also prints the query's SQL and the last repetition's
// per-operator statistics (the table `sipquery -stats` prints).
//
// The repo's benchmark is `make bench` (bench/, BENCHMARK.json), not this
// command.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure number to regenerate (5-14)")
		all      = flag.Bool("all", false, "run every figure")
		sf       = flag.Float64("sf", 0.05, "TPC-H scale factor")
		reps     = flag.Int("reps", 3, "repetitions per cell (the paper used ≥5)")
		fpr      = flag.Float64("fpr", 0.05, "Bloom filter false-positive target")
		query    = flag.String("query", "", "run a single workload query (e.g. Q2A)")
		strategy = flag.String("strategy", "Feed-forward", "strategy for -query")
		verbose  = flag.Bool("v", false, "with -query: print the SQL and the last repetition's per-operator statistics")
		summary  = flag.Bool("summary", true, "print shape summary after each figure")
	)
	flag.Parse()

	runner := harness.New(harness.Config{
		ScaleFactor: *sf,
		Repetitions: *reps,
		FPR:         *fpr,
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
			fmt.Println("\nSQL:")
			fmt.Println(spec.SQL(eng.Catalog()))
			fmt.Println()
			fmt.Print(cell.Report)
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
