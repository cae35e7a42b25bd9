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
// sources whose filters prune them (start order), what Q17 under Feed-forward
// scans, prunes and lets each scan emit does not depend on which goroutine
// wins a race: five runs agree on TuplesScanned, TuplesPruned and every
// scan's Out exactly. What the plan holds still hangs on one race the paper
// builds in — which input of the outer join completes first (§VI-A: the
// other's later rows are then never buffered, nor their table reserved) —
// so the operators' own state high-water marks are compared, within 1%,
// among the runs whose operators each buffered the same number of rows.
// The race also decides the AIP memory beside it: the losing input may have
// routed a row before its sibling completed, and so allocated a working
// bitmap its set is then dropped with, unpublished — or, rarely, stored
// every row just before its sibling completed, and publishes too. The
// query's summary memory is therefore the published sets — the same among
// runs that buffered the same rows — plus exactly the working memory of the
// inputs that published nothing.
// (PeakMemBytes is the query-wide high-water mark, so it also hangs on when
// a finished operator releases its state.)
func TestQ17FeedForwardDeterminism(t *testing.T) {
	cat := GenerateTPCH(DataConfig{ScaleFactor: 0.01})
	eng := NewEngine(cat)
	sql := tableIQueries(t, cat)["Q2A"]
	var first *Result
	var outs map[string]int64
	peaks := map[string]int64{}     // rows each operator buffered -> the operators' state peaks
	published := map[string]int64{} // … -> the bytes of summaries published
	for run := 0; run < 5; run++ {
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
			} else if pf := op.PreFilter.Load(); pf > 0 && (op.Name == "join:q.j1.left" || op.Name == "agg:q._sq1") {
				t.Fatalf("run %d: %d rows reached %s before its filter", run, pf, op.Name)
			}
		}
		slices.Sort(stored)
		key := strings.Join(stored, " ")
		if peak, ok := peaks[key]; !ok {
			peaks[key], published[key] = opPeaks, pub
		} else if d := opPeaks - peak; d*100 > peak || -d*100 > peak {
			t.Fatalf("run %d: the operators' state peaks sum to %d B, an earlier run buffering the same rows (%s) had %d (more than 1%% apart)",
				run, opPeaks, key, peak)
		} else if pub != published[key] {
			t.Fatalf("run %d: published %d B of summaries, an earlier run buffering the same rows (%s) %d B", run, pub, key, published[key])
		}
		if run == 0 {
			first, outs = res, got
			if len(outs) != 3 {
				t.Fatalf("%d scans, want lineitem twice and part: %v", len(outs), outs)
			}
			continue
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
// input and the sub-block's aggregation publish theirs; j0.right, fed by the
// sub-block's output after its sibling completed, builds none. Which input
// of the outer join j1 completes first is a race the paper builds in
// (§VI-A), read here from the run's own stats: an input that stored every
// row it received publishes its bitmap — the first to complete, and rarely
// the other too, when its last row was stored just before its sibling
// completed. An input that did not store every row is short-circuited: its
// state is incomplete, so it builds nothing when none of its rows was routed
// before its sibling completed, and otherwise drops its working bitmap
// unpublished (filter=0B). The filters line counts the published sets, all
// bitmaps, and 4 injections; the query's peak working filter memory is the
// published bitmaps plus a dropped one, if any.
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
	published := []string{"join:q.j0.left", "agg:q._sq1"}
	if built("join:q.j0.right") {
		t.Fatalf("join:q.j0.right built a working set:\n%s", report)
	}
	var short []string
	for _, op := range res.Stats.Ops() {
		if op.Name != "join:q.j1.left" && op.Name != "join:q.j1.right" {
			continue
		}
		if op.StateRows.Load() == op.In.Load() {
			published = append(published, op.Name)
		} else {
			short = append(short, op.Name)
		}
	}
	if len(short) == 2 {
		t.Fatalf("neither input of j1 stored every row it received\n%s", report)
	}
	made := len(published)
	if line := fmt.Sprintf("filters: made=%d (bitmap %d) used=4 ", made, made); !strings.Contains(report, line) {
		t.Fatalf("filters line: want %q\n%s", line, report)
	}
	for _, op := range published {
		if !strings.Contains(row(op), field) {
			t.Fatalf("%s: want %q on its row\n%s", op, field, report)
		}
	}
	sets := made
	for _, op := range short {
		if !built(op) {
			continue
		}
		if dropped := fmt.Sprintf("filter=0B work-peak=%dB ", bitmap); !strings.Contains(row(op), dropped) {
			t.Fatalf("%s was short-circuited: want nothing built or %q on its row\n%s", op, dropped, report)
		}
		sets++
	}
	if res.PeakFilterWorkingBytes > int64(sets*bitmap) {
		t.Fatalf("peak working filter memory %d B, want ≤ %d (%d bitmaps)\n%s", res.PeakFilterWorkingBytes, sets*bitmap, sets, report)
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
