// Package harness runs the paper's experiments (Figures 5–14) and prints
// the same series each figure reports: per-query running time or
// intermediate-state size for each execution strategy. It is shared by the
// sipbench command and the root bench_test.go benchmarks.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	sip "repro"
	"repro/internal/workload"
)

// Config parameterizes a harness run.
type Config struct {
	// ScaleFactor for the generated data (the paper ran 1 GB = SF 1; the
	// default reproduction scale is 0.05).
	ScaleFactor float64
	// Repetitions per (query, strategy) cell; the paper used ≥5.
	Repetitions int
	// FPR is the Bloom false-positive target (default 5%).
	FPR float64
	// SourceMBps paces scans like local source streams (default 1000 MB/s
	// — fast enough that CPU dominates, as in the paper's "optimum data
	// transfer conditions", while still staggering completion times by
	// relation size; set negative for unpaced).
	SourceMBps float64
}

func (c Config) withDefaults() Config {
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 0.05
	}
	if c.Repetitions < 1 {
		c.Repetitions = 1
	}
	if c.SourceMBps == 0 {
		c.SourceMBps = 1000
	}
	return c
}

// Runner executes experiment cells, caching the generated catalogs.
type Runner struct {
	cfg     Config
	engines map[bool]*sip.Engine // keyed by skew
}

// New creates a runner.
func New(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), engines: map[bool]*sip.Engine{}}
}

// Engine returns the (cached) engine for the uniform or skewed data set.
func (r *Runner) Engine(skewed bool) *sip.Engine {
	if e, ok := r.engines[skewed]; ok {
		return e
	}
	cfg := sip.DataConfig{ScaleFactor: r.cfg.ScaleFactor}
	if skewed {
		cfg.Skew = true
		cfg.Z = 0.5
	}
	e := sip.NewEngine(sip.GenerateTPCH(cfg))
	r.engines[skewed] = e
	return e
}

// Cell is one measured (query, strategy) data point.
type Cell struct {
	Query    string
	Strategy string

	Mean time.Duration
	// CI95 is the 95% confidence half-interval across repetitions.
	CI95 time.Duration

	StateMB float64
	Rows    int
	Pruned  int64
	Filters int64
	NetMB   float64

	// Report is the last repetition's per-operator statistics table
	// (stats.Registry.Report, what `sipquery -stats` prints).
	Report string
}

// StrategyByName maps the figure labels to strategies.
func StrategyByName(name string) (sip.Strategy, error) {
	switch name {
	case "Baseline":
		return sip.Baseline, nil
	case "Magic":
		return sip.Magic, nil
	case "Feed-forward":
		return sip.FeedForward, nil
	case "Cost-based":
		return sip.CostBased, nil
	default:
		return 0, fmt.Errorf("harness: unknown strategy %q", name)
	}
}

// RunCell measures one query under one strategy.
func (r *Runner) RunCell(spec workload.Spec, strategyName string, delayed []string) (Cell, error) {
	strat, err := StrategyByName(strategyName)
	if err != nil {
		return Cell{}, err
	}
	eng := r.Engine(spec.Skewed)
	opts := sip.Options{
		Strategy:      strat,
		FPR:           r.cfg.FPR,
		DelayedTables: delayed,
		RemoteTables:  spec.Remote,
	}
	if r.cfg.SourceMBps > 0 {
		opts.SourceBytesPerSec = int64(r.cfg.SourceMBps * 1e6)
	}
	sql := spec.SQL(eng.Catalog())

	cell := Cell{Query: spec.ID, Strategy: strategyName}
	times := make([]float64, 0, r.cfg.Repetitions)
	for i := 0; i < r.cfg.Repetitions; i++ {
		res, err := eng.Query(context.Background(), sql, opts)
		if err != nil {
			return Cell{}, fmt.Errorf("%s/%s: %w", spec.ID, strategyName, err)
		}
		times = append(times, float64(res.Duration))
		// State and counters are deterministic up to scheduling noise;
		// keep the max across reps (high-water semantics).
		mb := float64(res.PeakStateBytes) / (1 << 20)
		if mb > cell.StateMB {
			cell.StateMB = mb
		}
		cell.Rows = len(res.Rows)
		cell.Pruned = res.TuplesPruned
		cell.Filters = res.FiltersCreated
		cell.NetMB = float64(res.NetworkBytes) / (1 << 20)
		cell.Report = res.Stats.Report()
	}
	mean, ci := meanCI95(times)
	cell.Mean = time.Duration(mean)
	cell.CI95 = time.Duration(ci)
	return cell, nil
}

// meanCI95 returns the mean and the 95% confidence half-interval (normal
// approximation; the paper reports 95% intervals over ≥5 repetitions).
func meanCI95(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	sd := math.Sqrt(ss / (n - 1))
	return mean, 1.96 * sd / math.Sqrt(n)
}

// RunFigure executes every cell of a figure and prints its series.
func (r *Runner) RunFigure(fig workload.Figure, w io.Writer) ([]Cell, error) {
	fmt.Fprintf(w, "Figure %d: %s\n", fig.Number, fig.Title)
	fmt.Fprintf(w, "(scale factor %g, %d repetition(s); metric: %s)\n\n",
		r.cfg.ScaleFactor, r.cfg.Repetitions, fig.Metric)

	header := fmt.Sprintf("%-6s", "query")
	for _, s := range fig.Strategies {
		header += fmt.Sprintf("%16s", s)
	}
	fmt.Fprintln(w, header)

	var cells []Cell
	for _, qid := range fig.Queries {
		spec, err := workload.ByID(qid)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%-6s", qid)
		for _, strat := range fig.Strategies {
			cell, err := r.RunCell(spec, strat, fig.Delayed[qid])
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
			switch fig.Metric {
			case "state":
				row += fmt.Sprintf("%13.2fMB", cell.StateMB)
			default:
				row += fmt.Sprintf("%11s±%3dms", cell.Mean.Round(time.Millisecond),
					cell.CI95.Milliseconds())
			}
		}
		fmt.Fprintln(w, row)
	}
	fmt.Fprintln(w)
	return cells, nil
}

// Summarize renders shape checks over a figure's cells: per query, which
// strategy won and the baseline-relative factors. EXPERIMENTS.md is built
// from this output.
func Summarize(cells []Cell, metric string, w io.Writer) {
	byQuery := map[string][]Cell{}
	var order []string
	for _, c := range cells {
		if _, ok := byQuery[c.Query]; !ok {
			order = append(order, c.Query)
		}
		byQuery[c.Query] = append(byQuery[c.Query], c)
	}
	for _, q := range order {
		group := byQuery[q]
		val := func(c Cell) float64 {
			if metric == "state" {
				return c.StateMB
			}
			return float64(c.Mean)
		}
		var base float64
		for _, c := range group {
			if c.Strategy == "Baseline" {
				base = val(c)
			}
		}
		sort.Slice(group, func(i, j int) bool { return val(group[i]) < val(group[j]) })
		fmt.Fprintf(w, "%s: winner=%s", q, group[0].Strategy)
		if base > 0 {
			for _, c := range group {
				fmt.Fprintf(w, "  %s=%.2fx", c.Strategy, val(c)/base)
			}
		}
		fmt.Fprintln(w)
	}
}
