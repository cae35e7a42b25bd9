// Benchmarks regenerating every figure of the paper's evaluation (Figures
// 5–14), plus the ablation studies DESIGN.md calls out. Each figure
// benchmark executes the figure's full (query × strategy) grid once per
// iteration and reports the series through b.Log on the first iteration;
// `go run ./cmd/sipbench -all` prints the same tables with confidence
// intervals at larger scale.
package sip_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	sip "repro"
	"repro/internal/harness"
	"repro/internal/workload"
)

// benchScale keeps `go test -bench=.` tractable; sipbench defaults to a
// larger SF 0.05 for the recorded experiments.
const benchScale = 0.01

var benchRunner = harness.New(harness.Config{
	ScaleFactor: benchScale,
	Repetitions: 1,
})

// runFigure executes one full figure grid per iteration.
func runFigure(b *testing.B, num int) {
	fig, err := workload.FigureByNumber(num)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engines (catalog generation excluded from timing).
	benchRunner.Engine(false)
	benchRunner.Engine(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		cells, err := benchRunner.RunFigure(fig, &buf)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var sum bytes.Buffer
			harness.Summarize(cells, fig.Metric, &sum)
			b.Logf("\n%s\nshape summary:\n%s", buf.String(), sum.String())
			reportShape(b, cells, fig.Metric)
		}
	}
}

// reportShape publishes baseline-relative aggregate metrics so regressions
// in the reproduced shapes show up in benchmark diffs.
func reportShape(b *testing.B, cells []harness.Cell, metric string) {
	val := func(c harness.Cell) float64 {
		if metric == "state" {
			return c.StateMB
		}
		return float64(c.Mean)
	}
	base := map[string]float64{}
	for _, c := range cells {
		if c.Strategy == "Baseline" {
			base[c.Query] = val(c)
		}
	}
	agg := map[string][]float64{}
	for _, c := range cells {
		if c.Strategy == "Baseline" || base[c.Query] == 0 {
			continue
		}
		agg[c.Strategy] = append(agg[c.Strategy], val(c)/base[c.Query])
	}
	for strat, ratios := range agg {
		var mean float64
		for _, r := range ratios {
			mean += r
		}
		mean /= float64(len(ratios))
		b.ReportMetric(mean, strat+"/baseline")
	}
}

func BenchmarkFig05TimeQ2AndIBM(b *testing.B)      { runFigure(b, 5) }
func BenchmarkFig06TimeQ17(b *testing.B)           { runFigure(b, 6) }
func BenchmarkFig07SpaceQ2AndIBM(b *testing.B)     { runFigure(b, 7) }
func BenchmarkFig08SpaceQ17(b *testing.B)          { runFigure(b, 8) }
func BenchmarkFig09TimeDelayedQ2(b *testing.B)     { runFigure(b, 9) }
func BenchmarkFig10TimeDelayedQ17(b *testing.B)    { runFigure(b, 10) }
func BenchmarkFig11SpaceDelayedQ2(b *testing.B)    { runFigure(b, 11) }
func BenchmarkFig12SpaceDelayedQ17(b *testing.B)   { runFigure(b, 12) }
func BenchmarkFig13TimeJoinsDistrib(b *testing.B)  { runFigure(b, 13) }
func BenchmarkFig14SpaceJoinsDistrib(b *testing.B) { runFigure(b, 14) }

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

func benchEngine() *sip.Engine {
	return benchRunner.Engine(false)
}

func q17SQL(e *sip.Engine) string {
	spec, _ := workload.ByID("Q2A")
	return spec.SQL(e.Catalog())
}

// BenchmarkAblationSummaryKind compares Bloom filters against exact hash
// sets as the AIP-set representation (the paper found Bloom superior, §V).
func BenchmarkAblationSummaryKind(b *testing.B) {
	e := benchEngine()
	sql := q17SQL(e)
	for _, kind := range []struct {
		name string
		k    sip.SummaryKind
	}{{"Bloom", sip.SummaryBloom}, {"HashSet", sip.SummaryHashSet}} {
		b.Run(kind.name, func(b *testing.B) {
			var state float64
			for i := 0; i < b.N; i++ {
				res, err := e.Query(context.Background(), sql, sip.Options{Strategy: sip.FeedForward, Summary: kind.k})
				if err != nil {
					b.Fatal(err)
				}
				state = float64(res.PeakStateBytes) / (1 << 20)
			}
			b.ReportMetric(state, "stateMB")
		})
	}
}

// BenchmarkAblationFPR sweeps the Bloom false-positive target around the
// paper's 5% setting.
func BenchmarkAblationFPR(b *testing.B) {
	e := benchEngine()
	sql := q17SQL(e)
	for _, fpr := range []float64{0.01, 0.05, 0.20} {
		b.Run(fmt.Sprintf("fpr=%g", fpr), func(b *testing.B) {
			var pruned int64
			for i := 0; i < b.N; i++ {
				res, err := e.Query(context.Background(), sql, sip.Options{Strategy: sip.FeedForward, FPR: fpr})
				if err != nil {
					b.Fatal(err)
				}
				pruned = res.TuplesPruned
			}
			b.ReportMetric(float64(pruned), "pruned")
		})
	}
}

// BenchmarkAblationCostThreshold sweeps the Cost-Based manager's fixed
// creation overhead: 0 makes it nearly as eager as Feed-Forward, large
// values starve it.
func BenchmarkAblationCostThreshold(b *testing.B) {
	e := benchEngine()
	sql := q17SQL(e)
	for _, fixed := range []float64{0, 64, 4096} {
		b.Run(fmt.Sprintf("fixed=%g", fixed), func(b *testing.B) {
			cost := sip.DefaultCostParams()
			cost.Fixed = fixed
			var filters int64
			for i := 0; i < b.N; i++ {
				res, err := e.Query(context.Background(), sql, sip.Options{Strategy: sip.CostBased, Cost: &cost})
				if err != nil {
					b.Fatal(err)
				}
				filters = res.FiltersCreated
			}
			b.ReportMetric(float64(filters), "filters")
		})
	}
}

// BenchmarkStrategies is the headline comparison on TPC-H Q17 at bench
// scale: per-strategy end-to-end latency.
func BenchmarkStrategies(b *testing.B) {
	e := benchEngine()
	sql := q17SQL(e)
	for _, s := range sip.AllStrategies() {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(context.Background(), sql, sip.Options{Strategy: s}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedBloomjoin measures the §VI-C remote case: Q3C over a
// modeled 100 Mbps link, baseline vs Cost-Based filter shipping.
func BenchmarkDistributedBloomjoin(b *testing.B) {
	e := benchEngine()
	spec, _ := workload.ByID("Q3C")
	sql := spec.SQL(e.Catalog())
	topo := sip.NewTopology(&sip.Link{BytesPerSec: sip.Mbps(100), Latency: time.Millisecond})
	for _, s := range []sip.Strategy{sip.Baseline, sip.CostBased} {
		b.Run(s.String(), func(b *testing.B) {
			var netMB float64
			for i := 0; i < b.N; i++ {
				res, err := e.Query(context.Background(), sql, sip.Options{
					Strategy:     s,
					RemoteTables: spec.Remote,
					Topology:     topo,
				})
				if err != nil {
					b.Fatal(err)
				}
				netMB = float64(res.NetworkBytes) / (1 << 20)
			}
			b.ReportMetric(netMB, "netMB")
		})
	}
}

// BenchmarkParseBind isolates front-end cost on the most complex workload
// query.
func BenchmarkParseBind(b *testing.B) {
	e := benchEngine()
	spec, _ := workload.ByID("Q1A")
	sql := spec.SQL(e.Catalog())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(sql); err != nil {
			b.Fatal(err)
		}
	}
}
