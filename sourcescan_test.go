package sip

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/types"
	"repro/internal/workload"
)

// tableIQueries are the five Table I queries of the benchmark's mix.
func tableIQueries(t *testing.T, cat *Catalog) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, id := range []string{"Q1A", "Q2A", "Q3A", "Q4A", "Q5A"} {
		spec, err := workload.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = spec.SQL(cat)
	}
	return out
}

// unvectorized returns a catalog over the same tables with the join-key
// columns of lineitem and partsupp made unvectorizable — one row's key
// becomes the equal DECIMAL, so the column mixes kinds, and lineitem also
// gets a NULL l_partkey — so every scan-side probe on them takes the row
// fallback. Rows are copied; the source catalog is untouched.
func unvectorized(t *testing.T, src *Catalog) *Catalog {
	t.Helper()
	out := catalog.New()
	for _, name := range src.Names() {
		tbl, err := src.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cp := &catalog.Table{Name: tbl.Name, Schema: tbl.Schema, Rows: tbl.Rows,
			PrimaryKey: tbl.PrimaryKey, ForeignKeys: tbl.ForeignKeys, DistinctEst: tbl.DistinctEst}
		var cols []string
		switch name {
		case "lineitem":
			cols = []string{"l_partkey", "l_suppkey", "l_orderkey"}
		case "partsupp":
			cols = []string{"ps_partkey", "ps_suppkey"}
		}
		if len(cols) > 0 {
			cp.Rows = append([]types.Tuple(nil), tbl.Rows...)
			for i, col := range cols {
				ci := cp.ColumnIndex(col)
				row := cp.Rows[i].Clone()
				row[ci] = types.Float(float64(row[ci].I))
				cp.Rows[i] = row
			}
			if name == "lineitem" {
				row := cp.Rows[len(cols)].Clone()
				row[cp.ColumnIndex("l_partkey")] = types.Null()
				cp.Rows[len(cols)] = row
			}
			for _, col := range cols {
				if v, _ := cp.IntVec(cp.ColumnIndex(col)); v != nil {
					t.Fatalf("%s.%s still has a vector", name, col)
				}
			}
		}
		out.Add(cp)
	}
	return out
}

// TestSourceSelectionDifferential is the tentpole's answer-preservation
// property at the engine level: with scans selecting at the source, Q1A–Q5A
// under every strategy × summary kind × P ∈ {1, 2} return the
// rows of Baseline at P=1 — over the generated catalog (vector kernels) and
// over one whose key columns have no vectors (row fallback inside the scan).
func TestSourceSelectionDifferential(t *testing.T) {
	src := GenerateTPCH(DataConfig{ScaleFactor: 0.005})
	ctx := context.Background()
	for label, cat := range map[string]*Catalog{"vectors": src, "row-fallback": unvectorized(t, src)} {
		eng := NewEngine(cat)
		pruned := map[Strategy]int64{}
		for id, sql := range tableIQueries(t, cat) {
			base, err := eng.Query(ctx, sql, Options{Strategy: Baseline, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s %s baseline: %v", label, id, err)
			}
			want := strings.Join(canon(base.Rows), "\n")
			for _, strat := range AllStrategies() {
				for _, sum := range []SummaryKind{SummaryBloom, SummaryHashSet} {
					for _, p := range []int{1, 2} {
						res, err := eng.Query(ctx, sql, Options{Strategy: strat, Summary: sum, Parallelism: p})
						if err != nil {
							t.Fatalf("%s %s %v %v P=%d: %v", label, id, strat, sum, p, err)
						}
						if got := strings.Join(canon(res.Rows), "\n"); got != want {
							t.Fatalf("%s %s %v %v P=%d: rows differ from Baseline/P=1\ngot:\n%s\nwant:\n%s",
								label, id, strat, sum, p, got, want)
						}
						// (Magic rewrites the plan, and with it what is scanned.)
						if strat != Magic && res.TuplesScanned != base.TuplesScanned {
							t.Fatalf("%s %s %v: scanned %d tuples, Baseline %d — TuplesScanned must count rows read",
								label, id, strat, res.TuplesScanned, base.TuplesScanned)
						}
						pruned[strat] += res.TuplesPruned
					}
				}
			}
		}
		if pruned[Baseline] != 0 || pruned[FeedForward] == 0 || pruned[CostBased] == 0 {
			t.Fatalf("%s: pruned per strategy %v; want none under Baseline and some under both AIP strategies", label, pruned)
		}
	}
}

// wiredScans walks a plan template and returns, for every scan that probes
// on behalf of a consumer, the scan keyed by its point's name.
func wiredScans(op exec.Op, out map[string]*exec.Scan) {
	switch o := op.(type) {
	case *exec.Scan:
		if o.Point != nil {
			out[o.Point.Name] = o
		}
	case *exec.Filter:
		wiredScans(o.Child, out)
	case *exec.Project:
		wiredScans(o.Child, out)
	case *exec.HashJoin:
		wiredScans(o.Left, out)
		wiredScans(o.Right, out)
	case *exec.HashAgg:
		wiredScans(o.Child, out)
	case *exec.Distinct:
		wiredScans(o.Child, out)
	}
}

// TestSourceSelectionAccounting runs Q17 under Feed-forward and checks that
// moving the probe into the scan moved no count: each point a scan feeds
// has received exactly the rows that scan read (the lineitem scans carry no
// predicate), its operator saw exactly the rows the scan emitted, pruned
// covers at least what the scan dropped and never overlaps what was stored,
// and the query totals are the sums of those. (The exact identity — pruned
// plus kept equals received — is pinned where kept is observable, in
// exec's TestScanSideSelectionDifferential.)
func TestSourceSelectionAccounting(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	sql := tableIQueries(t, cat)["Q2A"]
	lineitem, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategy: FeedForward}
	p, _, err := eng.adhocPlan(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	wired := map[string]*exec.Scan{}
	wiredScans(p.built.Root, wired)
	rows, err := eng.QueryStream(context.Background(), sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	res := rows.Result()
	ops := map[string]int{}
	for i, op := range res.Stats.Ops() {
		ops[op.Name] = i
	}
	lineitemPoints := 0
	var prunedSum, droppedSum int64
	for _, pt := range rows.ectx.Points() {
		prunedSum += pt.Op.Pruned.Load()
		sc, ok := wired[pt.Name]
		if !ok {
			continue
		}
		scanName := sc.Name
		scan := res.Stats.Ops()[ops["scan:"+scanName]]
		label := fmt.Sprintf("%s <- scan:%s", pt.Name, scanName)
		if pt.Op.In.Load() != scan.Out.Load() {
			t.Fatalf("%s: operator saw %d rows, scan emitted %d", label, pt.Op.In.Load(), scan.Out.Load())
		}
		dropped := scan.In.Load() - scan.Out.Load()
		if pr := pt.Op.Pruned.Load(); pr+pt.StoredRows() > pt.Received() {
			t.Fatalf("%s: pruned %d + stored %d > received %d — a row was counted twice", label, pr, pt.StoredRows(), pt.Received())
		}
		if !strings.HasSuffix(scanName, "lineitem") {
			continue
		}
		lineitemPoints++
		if scan.In.Load() != lineitem.NumRows() || pt.Received() != lineitem.NumRows() {
			t.Fatalf("%s: scan read %d, point received %d, table has %d rows", label, scan.In.Load(), pt.Received(), lineitem.NumRows())
		}
		if pr := pt.Op.Pruned.Load(); pr < dropped {
			t.Fatalf("%s: scan dropped %d of %d rows, operator reports %d pruned", label, dropped, scan.In.Load(), pr)
		}
		droppedSum += dropped
	}
	if droppedSum == 0 {
		t.Fatal("no lineitem scan dropped a row at the source — test is vacuous")
	}
	if lineitemPoints != 2 {
		t.Fatalf("%d lineitem scans wired to a point, want 2 (join input and aggregation input); wired: %v", lineitemPoints, wired)
	}
	if res.TuplesPruned != prunedSum {
		t.Fatalf("TuplesPruned %d, points' operators sum to %d", res.TuplesPruned, prunedSum)
	}
	part, _ := cat.Table("part")
	if want := 2*lineitem.NumRows() + part.NumRows(); res.TuplesScanned != want {
		t.Fatalf("TuplesScanned %d, want %d rows read", res.TuplesScanned, want)
	}
	rows.Close()
}

// TestQ17FeedForwardDeterminism: with routing scans ordered behind the small
// sources whose filters prune them, and the outer lineitem scan behind j1's
// 10-row side (start order's sibling edge), Q17 under Feed-forward has one
// outcome: every run scans, prunes and lets each scan emit the same rows,
// every operator buffers the same rows, and the same summaries are made and
// published. j1.right always completes first, so j1.left stores nothing and
// builds no working set (its route calls no OnStore once the sibling is
// done). The operators' state peaks agree too: a key table grows with the
// keys it holds, not with how the routing scans' chunk workers, racing,
// grouped them into scatters.
func TestQ17FeedForwardDeterminism(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	sql := tableIQueries(t, cat)["Q2A"]
	var first *Result
	var outs map[string]int64
	var firstStored string
	var firstPub, firstPeaks int64
	for run := 0; run < 20; run++ {
		res, err := eng.Query(context.Background(), sql, Options{Strategy: FeedForward})
		if err != nil {
			t.Fatal(err)
		}
		pub, opPeaks := summaryMemory(t, run, res)
		got := map[string]int64{}
		var stored []string
		for _, op := range res.Stats.Ops() {
			if n := op.StateRows.Load(); n > 0 {
				stored = append(stored, fmt.Sprintf("%s=%d", op.Name, n))
			}
			if op.Class == "scan" {
				got[op.Name] = op.Out.Load()
				if strings.HasSuffix(op.Name, "lineitem") && op.Routed == "" {
					t.Fatalf("run %d: %s did not route for its consumer", run, op.Name)
				}
				if op.Name == "scan:q.lineitem" && !slices.Contains(op.WaitedFor, "join:q.j1.right") {
					t.Fatalf("run %d: the outer lineitem scan waited for %v, want join:q.j1.right", run, op.WaitedFor)
				}
			} else if pf := op.PreFilter.Load(); pf > 0 && (op.Name == "join:q.j1.left" || op.Name == "agg:q._sq1") {
				t.Fatalf("run %d: %d rows reached %s before its filter", run, pf, op.Name)
			}
			if op.Name == "join:q.j1.left" && (op.StateRows.Load() != 0 || op.FilterWorking.Peak() != 0) {
				t.Fatalf("run %d: j1.left stored %d rows and built %d B of working set, want none\n%s",
					run, op.StateRows.Load(), op.FilterWorking.Peak(), res.Stats.Report())
			}
		}
		slices.Sort(stored)
		key := strings.Join(stored, " ")
		if run == 0 {
			first, outs, firstStored, firstPub, firstPeaks = res, got, key, pub, opPeaks
			if len(outs) != 3 {
				t.Fatalf("%d scans, want lineitem twice and part: %v", len(outs), outs)
			}
			continue
		}
		if key != firstStored || pub != firstPub || res.Stats.FilterBytes.Load() != first.Stats.FilterBytes.Load() {
			t.Fatalf("run %d: buffered %s and published %d of %d B of summaries; run 0 buffered %s and published %d of %d B",
				run, key, pub, res.Stats.FilterBytes.Load(), firstStored, firstPub, first.Stats.FilterBytes.Load())
		}
		if opPeaks != firstPeaks {
			t.Fatalf("run %d: the operators' state peaks sum to %d B, run 0's to %d B", run, opPeaks, firstPeaks)
		}
		if m, m0 := res.Stats.FiltersMade.Load(), first.Stats.FiltersMade.Load(); m != m0 || res.PeakFilterWorkingBytes != first.PeakFilterWorkingBytes {
			t.Fatalf("run %d: made %d filters, working peak %d B; run 0 made %d, %d B", run, m, res.PeakFilterWorkingBytes, m0, first.PeakFilterWorkingBytes)
		}
		if res.TuplesScanned != first.TuplesScanned || res.TuplesPruned != first.TuplesPruned {
			t.Fatalf("run %d: scanned %d, pruned %d; run 0 had %d and %d",
				run, res.TuplesScanned, res.TuplesPruned, first.TuplesScanned, first.TuplesPruned)
		}
		for name, n := range got {
			if n != outs[name] {
				t.Fatalf("run %d: %s emitted %d rows, run 0 had %d", run, name, n, outs[name])
			}
		}
	}
}

// summaryMemory checks a run's AIP summary memory against its operators: the
// query's FilterBytes must be exactly pub, the bytes of the summaries the
// operators published, plus the working memory of the operators that
// published none — each working set is charged once, when allocated, and
// published as it stands — and PeakStateBytes the operators' state peaks,
// opPeaks, plus FilterBytes.
func summaryMemory(t *testing.T, run int, res *Result) (pub, opPeaks int64) {
	t.Helper()
	var dropped int64
	for _, op := range res.Stats.Ops() {
		opPeaks += op.StateBytes.Peak()
		if fb := op.FilterBytes.Load(); fb > 0 {
			pub += fb
		} else {
			dropped += op.FilterWorking.Peak()
		}
	}
	if fb := res.Stats.FilterBytes.Load(); fb != pub+dropped || opPeaks+fb != res.PeakStateBytes {
		t.Fatalf("run %d: summary memory %d B, want the published %d B + the dropped working sets' %d B; PeakStateBytes %d",
			run, fb, pub, dropped, res.PeakStateBytes)
	}
	return pub, opPeaks
}

// TestTableIFeedForwardSummaryMemory holds the summary-memory identity of
// summaryMemory on Table I queries whose classes include a Bloom filter
// (Q4A's and Q5A's top aggregation) beside bitmaps: a Bloom working set is
// charged once, like a bitmap, with no merged copy or clone at publication.
func TestTableIFeedForwardSummaryMemory(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	qs := tableIQueries(t, cat)
	for _, id := range []string{"Q4A", "Q5A"} {
		for run := 0; run < 3; run++ {
			res, err := eng.Query(context.Background(), qs[id], Options{Strategy: FeedForward})
			if err != nil {
				t.Fatal(err)
			}
			if made, bm := res.Stats.FiltersMade.Load(), res.Stats.FiltersBitmap.Load(); made == bm {
				t.Fatalf("%s run %d: made %d filters, all bitmaps; want a Bloom filter", id, run, made)
			}
			summaryMemory(t, run, res)
		}
	}
}

// TestQ17FeedForwardFilterReport pins what Feed-forward Q17's report says
// about its AIP sets: p_partkey's class spans [1, |part|], so every set is a
// bitmap of span/8 bytes, named as such on its operator's row. Part's join
// input, the sub-block's aggregation and j1.right publish theirs. j0.right,
// fed by the sub-block's output after its sibling completed, builds none, and
// neither does j1.left: the outer lineitem scan starts only once j1.right has
// completed (start order's sibling edge), so the input is short-circuited
// from its first row and its route calls no OnStore. The filters line counts
// the three published sets, all bitmaps, and 4 injections; the query's peak
// working filter memory is the three bitmaps.
func TestQ17FeedForwardFilterReport(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	part, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewEngine(cat).Query(context.Background(), tableIQueries(t, cat)["Q2A"], Options{Strategy: FeedForward})
	if err != nil {
		t.Fatal(err)
	}
	report := res.Stats.Report()
	bitmap := (len(part.Rows) + 63) / 64 * 8
	field := fmt.Sprintf("filter=%dB bitmap ", bitmap)
	// row returns op's report row with a space after its last field, so
	// that every field matches whole.
	row := func(op string) string {
		for _, line := range strings.Split(report, "\n") {
			if strings.HasPrefix(line, op+" ") {
				return line + " "
			}
		}
		t.Fatalf("no %s row\n%s", op, report)
		return ""
	}
	built := func(op string) bool {
		r := row(op)
		return strings.Contains(r, "filter=") || strings.Contains(r, "work-peak=")
	}
	published := []string{"join:q.j0.left", "agg:q._sq1", "join:q.j1.right"}
	for _, op := range []string{"join:q.j0.right", "join:q.j1.left"} {
		if built(op) {
			t.Fatalf("%s built a working set:\n%s", op, report)
		}
	}
	if line := fmt.Sprintf("filters: made=%d (bitmap %d) used=4 ", len(published), len(published)); !strings.Contains(report, line) {
		t.Fatalf("filters line: want %q\n%s", line, report)
	}
	for _, op := range published {
		if !strings.Contains(row(op), field) {
			t.Fatalf("%s: want %q on its row\n%s", op, field, report)
		}
	}
	if res.PeakFilterWorkingBytes > int64(len(published)*bitmap) {
		t.Fatalf("peak working filter memory %d B, want ≤ %d (%d bitmaps)\n%s", res.PeakFilterWorkingBytes, len(published)*bitmap, len(published), report)
	}
}

// TestPushedConjunctsRunTyped: every conjunct a Table I query pushes to a
// base-table scan — the string comparisons and LIKEs included — runs on a
// typed kernel under all four strategies (a scan's -stats row reads
// typed=n/n), and the string ones on dictionary codes: Q17's part scan sifts
// p_brand = and p_container = over codes.
func TestPushedConjunctsRunTyped(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	for id, sql := range tableIQueries(t, cat) {
		coded := 0
		for _, s := range AllStrategies() {
			res, err := eng.Query(context.Background(), sql, Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s %s: %v", id, s, err)
			}
			for _, op := range res.Stats.Ops() {
				if op.Typed != op.Conjuncts {
					t.Fatalf("%s %s: %s ran %d of %d pushed conjuncts typed:\n%s", id, s, op.Name, op.Typed, op.Conjuncts, res.Stats.Report())
				}
				coded += op.Coded
				if id == "Q2A" && op.Name == "scan:q.part" && (op.Coded != 2 || !strings.Contains(res.Stats.Report(), "typed=2/2")) {
					t.Fatalf("%s %s: part's scan sifted %d conjuncts on codes:\n%s", id, s, op.Coded, res.Stats.Report())
				}
			}
		}
		if coded == 0 {
			t.Fatalf("%s: no conjunct sifted on dictionary codes", id)
		}
	}
}
