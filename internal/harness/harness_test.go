package harness

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	sip "repro"
	"repro/internal/workload"
)

// sharedRunner caches the generated catalogs across tests in this package.
var sharedRunner = New(Config{ScaleFactor: 0.005, Repetitions: 1})

func canon(rows []sip.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = canonValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestAllWorkloadQueriesAgreeAcrossStrategies is the central correctness
// gate: every Table I query must produce identical results under Baseline,
// Magic, Feed-forward, and Cost-based execution.
func TestAllWorkloadQueriesAgreeAcrossStrategies(t *testing.T) {
	for _, spec := range workload.Queries() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			eng := sharedRunner.Engine(spec.Skewed)
			sql := spec.SQL(eng.Catalog())
			var baseline []string
			for _, strat := range []sip.Strategy{sip.Baseline, sip.Magic, sip.FeedForward, sip.CostBased} {
				res, err := eng.Query(context.Background(), sql, sip.Options{Strategy: strat, RemoteTables: spec.Remote})
				if err != nil {
					t.Fatalf("%v failed: %v", strat, err)
				}
				got := canon(res.Rows)
				if strat == sip.Baseline {
					baseline = got
					if len(baseline) == 0 {
						t.Logf("note: %s returns no rows at this scale", spec.ID)
					}
					continue
				}
				if len(got) != len(baseline) {
					t.Fatalf("%v: %d rows, baseline %d", strat, len(got), len(baseline))
				}
				for i := range got {
					if got[i] != baseline[i] {
						t.Fatalf("%v row %d:\n got %q\nwant %q", strat, i, got[i], baseline[i])
					}
				}
			}
		})
	}
}

func TestRunCellProducesMeasurement(t *testing.T) {
	spec, err := workload.ByID("Q3A")
	if err != nil {
		t.Fatal(err)
	}
	cell, err := sharedRunner.RunCell(spec, "Feed-forward", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Mean <= 0 {
		t.Fatalf("expected positive runtime, got %v", cell.Mean)
	}
	if cell.StateMB <= 0 {
		t.Fatalf("expected state accounting, got %v MB", cell.StateMB)
	}
}

// TestRunCellReportsOperators pins what `sipbench -query … -v` prints:
// the cell carries the per-operator statistics table of its last
// repetition, naming the plan's scans.
func TestRunCellReportsOperators(t *testing.T) {
	spec, err := workload.ByID("Q2A")
	if err != nil {
		t.Fatal(err)
	}
	r := New(Config{ScaleFactor: 0.01, Repetitions: 1})
	cell, err := r.RunCell(spec, "Feed-forward", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cell.Report, "operator") || !strings.Contains(cell.Report, "\nscan:") {
		t.Fatalf("cell report has no scan: rows:\n%s", cell.Report)
	}
}

func TestRunFigurePrintsSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run in -short mode")
	}
	fig, err := workload.FigureByNumber(6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cells, err := sharedRunner.RunFigure(fig, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fig.Queries) * len(fig.Strategies); len(cells) != want {
		t.Fatalf("expected %d cells, got %d", want, len(cells))
	}
	out := buf.String()
	for _, q := range fig.Queries {
		if !strings.Contains(out, q) {
			t.Fatalf("figure output missing query %s:\n%s", q, out)
		}
	}
	var sum bytes.Buffer
	Summarize(cells, fig.Metric, &sum)
	if !strings.Contains(sum.String(), "winner=") {
		t.Fatalf("summary missing winners:\n%s", sum.String())
	}
}

func canonValue(v sip.Value) string { return sip.FormatValueRounded(v, 9) }
