package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// worsening returns by what share of a the value b is worse, given the
// metric's direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs the suite twice on the same code and seed and reports,
// per workload and end-to-end metric, how far the two runs differ against
// the metric's bound. The first run is saved with those differences as its
// A/A spread, which -compare reads to tell "unchanged" from "unresolved".
func runSelfcheck(cfg runConfig) error {
	a, err := runSuite(cfg)
	if err != nil {
		return err
	}
	b, err := runSuite(cfg)
	if err != nil {
		return err
	}
	if err := saveSuite(cfg.outDir, "selfcheck-b", b); err != nil {
		return err
	}
	a.AASpread = map[string]map[string]float64{}
	exceeded := 0
	fmt.Printf("\n%-16s %-22s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "diff", "bound")
	for _, w := range workloads {
		a.AASpread[w.name] = map[string]float64{}
		for _, d := range endToEnd {
			va := a.Workloads[w.name].EndToEnd.Metrics[d.Name].Value
			vb := b.Workloads[w.name].EndToEnd.Metrics[d.Name].Value
			diff := math.Abs(worsening(d, va, vb))
			a.AASpread[w.name][d.Name] = diff
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if err := saveSuite(cfg.outDir, "selfcheck-a", a); err != nil {
		return err
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same code by more than their bound", exceeded)
	}
	return nil
}

// compareFiles prints the same table for two saved suites, A the parent
// and B the change. A cell whose A/A spread (saved by -selfcheck) exceeds
// the bound is unresolved: the benchmark cannot tell a change that small.
func compareFiles(pathA, pathB string) error {
	var a, b suiteResult
	for _, f := range []struct {
		path string
		into *suiteResult
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, w := range workloads {
		wa, okA := a.Workloads[w.name]
		wb, okB := b.Workloads[w.name]
		if !okA || !okB {
			return fmt.Errorf("workload %s is missing from one of the files", w.name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd.Metrics[d.Name].Value, wb.EndToEnd.Metrics[d.Name].Value
			worse := worsening(d, va, vb)
			verdict := "unchanged"
			switch {
			case a.AASpread[w.name][d.Name] > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSED"
			case worse < -d.Bound:
				verdict = "improved"
			}
			fmt.Printf("%-16s %-22s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", w.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		if wa.EndToEnd.Failed != wb.EndToEnd.Failed {
			fmt.Printf("%-16s failed queries: A %d of %d, B %d of %d\n", w.name, wa.EndToEnd.Failed, wa.EndToEnd.Attempted, wb.EndToEnd.Failed, wb.EndToEnd.Attempted)
		}
	}
	return nil
}
