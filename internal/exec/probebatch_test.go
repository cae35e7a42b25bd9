package exec

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bloom"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/types"
)

// probeHashed is the tuple-at-a-time reference ProbeBatch is held against:
// it runs t through every attached filter, false meaning prune. keyCols,
// keyHash and key are the probing operator's own key columns with their
// canonical encoding and Hash64 (keyCols = nil when there are none); a
// filter over exactly those columns is probed with them, any other column
// set is encoded into *buf first.
func (b *FilterBank) probeHashed(t types.Tuple, keyCols []int, keyHash uint64, key []byte, buf *[]byte) bool {
	filters := *b.cur.Load()
	for i := range filters {
		h, kb := keyHash, key
		if keyCols == nil || !equalInts(filters[i].cols, keyCols) {
			*buf = t.AppendKeyCols((*buf)[:0], filters[i].cols)
			h, kb = types.Hash64(*buf, 0), *buf
		}
		if !filters[i].sum.MayContainHash(h, kb) {
			return false
		}
	}
	return true
}

// probe is probeHashed for a caller without a precomputed key.
func (b *FilterBank) probe(t types.Tuple) bool {
	var buf []byte
	return b.probeHashed(t, nil, 0, nil, &buf)
}

// probeBatchFixture builds a bank with three summaries — a blocked filter
// over the probing key columns, a second blocked filter over a different
// column set, and an exact hash set over the key columns — so a batch probe
// hashes two column sets and resolves key bytes through keyAt.
func probeBatchFixture(rng *rand.Rand, nPresent int) (*FilterBank, []int, []types.Tuple) {
	keyCols := []int{0}
	altCols := []int{1}
	blocked := bloom.NewBlocked(nPresent, bloom.DefaultFPR)
	altBlocked := bloom.NewBlocked(nPresent, bloom.DefaultFPR)
	hs := filter.NewHashSet(64)
	var kb []byte
	for i := 0; i < nPresent; i++ {
		key := types.Tuple{types.Int(int64(i))}
		kb = key.AppendKeyCols(kb[:0], []int{0})
		h := types.Hash64(kb, 0)
		blocked.AddHash(h)
		hs.AddHash(h, kb)
		alt := types.Tuple{types.Int(int64(i * 3))}
		kb = alt.AppendKeyCols(kb[:0], []int{0})
		altBlocked.AddHash(types.Hash64(kb, 0))
	}
	bank := NewFilterBank()
	bank.Attach(keyCols, filter.Blocked{F: blocked})
	bank.Attach(altCols, filter.Blocked{F: altBlocked})
	bank.Attach(keyCols, hs)
	tuples := make([]types.Tuple, 4096)
	for i := range tuples {
		v := int64(rng.Intn(nPresent * 2))
		tuples[i] = types.Tuple{types.Int(v), types.Int(v * 3)}
	}
	return bank, keyCols, tuples
}

// TestProbeBatchMatchesProbeHashed is the batch-vs-scalar differential at
// the FilterBank level: the batch path must keep exactly the tuples the
// scalar path keeps, for every selection shape.
func TestProbeBatchMatchesProbeHashed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bank, keyCols, tuples := probeBatchFixture(rng, 2000)

	var buf []byte
	scalar := func(sel []int32) []int32 {
		var want []int32
		for _, i := range sel {
			h, key := keyOf(tuples[i], keyCols)
			if bank.probeHashed(tuples[i], keyCols, h, key, &buf) {
				want = append(want, i)
			}
		}
		return want
	}

	full := make([]int32, len(tuples))
	for i := range full {
		full[i] = int32(i)
	}
	var sub []int32
	for _, i := range full {
		if rng.Intn(4) == 0 {
			sub = append(sub, i)
		}
	}
	var sc ProbeScratch
	for _, tc := range []struct {
		name string
		sel  []int32
	}{
		{"full", full},
		{"subset", sub},
		{"empty", nil},
		{"single", full[:1]},
	} {
		want := scalar(tc.sel)
		got := bank.ProbeBatch(tuples, keyCols, tc.sel, nil, &sc)
		if len(got) != len(want) {
			t.Fatalf("%s: batch kept %d lanes, scalar kept %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: lane %d: batch %d, scalar %d", tc.name, i, got[i], want[i])
			}
		}
	}

	// All-fail: a bank whose only filter is empty prunes every lane.
	emptyBank := NewFilterBank()
	emptyBank.Attach(keyCols, filter.Blocked{F: bloom.NewBlocked(10, bloom.DefaultFPR)})
	if got := emptyBank.ProbeBatch(tuples, keyCols, full, nil, &sc); len(got) != 0 {
		t.Fatalf("empty filter passed %d lanes", len(got))
	}
	// No filters attached: ProbeBatch passes everything through.
	if got := NewFilterBank().ProbeBatch(tuples, keyCols, full, nil, &sc); len(got) != len(full) {
		t.Fatalf("no-filter bank kept %d of %d", len(got), len(full))
	}
}

// TestProbeBatchZeroAllocs pins the steady-state allocation count of the
// batch probe path at zero: the per-worker scratch and the caller-owned
// out vector must absorb every buffer need once warm.
func TestProbeBatchZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bank, keyCols, tuples := probeBatchFixture(rng, 2000)
	sel := make([]int32, len(tuples))
	for i := range sel {
		sel[i] = int32(i)
	}
	var sc ProbeScratch
	out := make([]int32, 0, len(sel))
	// Warm: first batch sizes the scratch arrays and binds keyAt.
	out = bank.ProbeBatch(tuples, keyCols, sel, out[:0], &sc)
	allocs := testing.AllocsPerRun(20, func() {
		out = bank.ProbeBatch(tuples, keyCols, sel, out[:0], &sc)
	})
	if allocs != 0 {
		t.Fatalf("ProbeBatch allocates %.1f objects per batch at steady state, want 0", allocs)
	}
}

// Probe-site benchmarks: the tuple-at-a-time scalar site the engine ran
// before batch probing vs the batch site it runs now, over the same bank
// and key stream — Q17's: lineitem's l_partkey probed against the 16 part
// keys a Feed-forward run publishes, in a filter over p_partkey's domain
// (one blocked Bloom filter sized for the class, or the bitmap the class
// gets instead).
type probeSite struct {
	tab      *catalog.Table
	keyCol   int
	bloom    filter.Summary
	bitmap   *filter.Bitmap
	keyCols  []int
	nRows    int
	inDomain int64 // domain size, p_partkey ∈ [1, inDomain]
}

func probeSiteBench(tb testing.TB) *probeSite {
	tb.Helper()
	cat := tpch.Generate(tpch.Config{ScaleFactor: 0.05, Seed: 2008})
	li, err := cat.Table("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	part, _ := cat.Table("part")
	ps := &probeSite{tab: li, keyCol: li.ColumnIndex("l_partkey"), nRows: len(li.Rows), inDomain: int64(len(part.Rows))}
	ps.keyCols = []int{ps.keyCol}
	ps.tab.IntVec(ps.keyCol)
	bits := bloom.BlockedBitsFor(len(part.Rows), bloom.DefaultFPR)
	f := bloom.NewBlockedWithGeometry(bits, bloom.BlockedKFor(len(part.Rows), bits), 0)
	ps.bitmap = filter.NewBitmap(1, ps.inDomain)
	for i := int64(0); i < 16; i++ {
		k := 1 + i*ps.inDomain/16
		f.AddHash(types.HashIntKey(k))
		ps.bitmap.Add(k)
	}
	ps.bloom = filter.Blocked{F: f}
	return ps
}

func BenchmarkProbeSiteScalar(b *testing.B) {
	ps := probeSiteBench(b)
	bank := NewFilterBank()
	bank.Attach(ps.keyCols, ps.bloom)
	var key, buf []byte
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, t := range ps.tab.Rows {
			key = t.AppendKeyCols(key[:0], ps.keyCols)
			if bank.probeHashed(t, ps.keyCols, types.Hash64(key, 0), key, &buf) {
				hits++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ps.nRows), "ns/row")
	benchSink = hits
}

// BenchmarkProbeSiteBatch: the batch site in its two shapes — an
// operator-fed input probing the tuples' integers (tuples/bloom hashes each
// one in registers, tuples/bitmap reads its bit), and a base-table scan
// probing on its consumer's behalf from the column vector (vector/bloom,
// vector/bitmap) — over every lane of each chunk but its first, so the
// bitmap walks the selection lane by lane; vector/bitmap-run probes every
// lane, the identity selection a scan hands on when its predicates kept the
// whole chunk, which the bitmap reads as a run (Bitmap.ProbeRun); and the
// router's whole route over the same rows (router: a bank holding the bitmap
// and the Bloom filter, probed bitmap first, then the survivors keyed as
// words and scattered to four partitions), ns/row.
func BenchmarkProbeSiteBatch(b *testing.B) {
	ps := probeSiteBench(b)
	for _, tc := range []struct {
		name     string
		sum      filter.Summary
		vec, run bool
	}{
		{"tuples/bloom", ps.bloom, false, false},
		{"tuples/bitmap", ps.bitmap, false, false},
		{"vector/bloom", ps.bloom, true, false},
		{"vector/bitmap", ps.bitmap, true, false},
		{"vector/bitmap-run", ps.bitmap, true, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bank := NewFilterBank()
			bank.Attach(ps.keyCols, tc.sum)
			var sc ProbeScratch
			if tc.vec {
				sc.vecs = ps.tab
			}
			sel, skip := identSel(scanChunkRows), 1
			if tc.run {
				skip = 0
			}
			out := make([]int32, 0, scanChunkRows)
			b.ReportAllocs()
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < ps.nRows; lo += scanChunkRows {
					hi := min(lo+scanChunkRows, ps.nRows)
					sc.vecLo = lo
					out = bank.ProbeBatch(ps.tab.Rows[lo:hi], nil, sel[skip:hi-lo], out[:0], &sc)
					hits += len(out)
				}
			}
			if tc.run != (sc.runs > 0) {
				b.Fatalf("%d of the probes ran as runs", sc.runs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ps.nRows), "ns/row")
			benchSink = hits
		})
	}
	b.Run("router", func(b *testing.B) {
		bank := NewFilterBank()
		bank.Attach(ps.keyCols, ps.bloom)
		bank.Attach(ps.keyCols, ps.bitmap)
		rt := testRoute(&Point{Bank: bank}, ps.keyCols, 4)
		ctx := NewContext(stats.NewRegistry(), nil)
		var sc ProbeScratch
		out := make([]int32, 0, BatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < ps.nRows; lo += BatchSize {
				hi := min(lo+BatchSize, ps.nRows)
				hits += len(rt.lanes(ctx, &sc, ps.tab.Rows[lo:hi], identSel(hi-lo), out[:0], -1))
				rt.recycle()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ps.nRows), "ns/row")
		benchSink = hits
	})
}

// testRoute is a router's route for an equi-join input keyed on keys, over
// P partitions whose scatters the caller takes back with recycle.
func testRoute(pt *Point, keys []int, P int) *inputRoute {
	rt := newInputRoute(0, P, make([]chan *scatter, P))
	rt.keys, rt.point, rt.op, rt.equi = keys, pt, &stats.OpStats{}, true
	return rt
}

// recycle empties the route's buffered scatters in place, as a delivery and
// the worker's putScatter would, so the next batch reuses them.
func (rt *inputRoute) recycle() {
	for _, sb := range rt.bufs {
		if sb != nil {
			sb.reset()
		}
	}
}

// TestBitmapProbeMatchesHashSet: a bitmap attached to a bank keeps exactly
// the lanes an exact hash set of the same keys keeps, through every probe
// shape — the column vector (a scan), the tuples' integers (an operator
// input, whose router probes before it keys anything), and the
// key bytes of lanes that are not integers (NULL, DECIMAL, strings, which
// pass the bitmap but must then pass the hash set too, or be NULL) — and a
// bitmap attached over two columns passes everything.
func TestBitmapProbeMatchesHashSet(t *testing.T) {
	ps := probeSiteBench(t)
	hs := filter.NewHashSet(64)
	for v := int64(-2); v <= ps.inDomain+2; v++ {
		if ps.bitmap.Contains(v) {
			kb := types.AppendIntKey(nil, v)
			hs.AddHash(types.Hash64(kb, 0), kb)
		}
	}
	rows := ps.tab.Rows[:5000]
	mixed := make([]types.Tuple, len(rows))
	for i, r := range rows {
		v := r[ps.keyCol]
		switch i % 7 {
		case 1:
			v = types.Float(float64(v.I)) // integral DECIMAL: same key
		case 2:
			v = types.Float(float64(v.I) + 0.5)
		case 3:
			v = types.Null()
		case 4:
			v = types.Str("x")
		}
		mixed[i] = types.Tuple{v, r[ps.keyCol]}
	}
	sel := identSel(len(rows))
	probeWith := func(sum filter.Summary, tuples []types.Tuple, cols []int, vecs expr.ColumnVectors) []int32 {
		bank := NewFilterBank()
		bank.Attach(cols, sum)
		sc := ProbeScratch{vecs: vecs}
		return bank.ProbeBatch(tuples, nil, sel, nil, &sc)
	}
	want := probeWith(hs, rows, ps.keyCols, nil)
	if len(want) == 0 || len(want) == len(rows) {
		t.Fatalf("fixture keeps %d of %d lanes; want some of each", len(want), len(rows))
	}
	for name, got := range map[string][]int32{
		"vector": probeWith(ps.bitmap, rows, ps.keyCols, ps.tab),
		"tuples": probeWith(ps.bitmap, rows, ps.keyCols, nil),
	} {
		if !slices.Equal(got, want) {
			t.Fatalf("%s: bitmap kept %d lanes, hash set %d", name, len(got), len(want))
		}
	}
	got, exact := probeWith(ps.bitmap, mixed, []int{0}, nil), probeWith(hs, mixed, []int{0}, nil)
	var extra []int32 // lanes the bitmap keeps and the hash set does not
	for _, l := range got {
		if !slices.Contains(exact, l) {
			extra = append(extra, l)
		}
	}
	for _, l := range exact {
		if !slices.Contains(got, l) {
			t.Fatalf("mixed kinds: the bitmap pruned lane %d (%v), which the hash set keeps", l, mixed[l][0])
		}
	}
	for _, l := range extra {
		if key := mixed[l][0].AppendKey(nil); key[0] == 0x01 { // integer-tagged
			t.Fatalf("mixed kinds: the bitmap kept lane %d (%v), an integer key the hash set prunes", l, mixed[l][0])
		}
	}
	if len(extra) == 0 {
		t.Fatal("mixed kinds: no NULL, DECIMAL or string lane passed the bitmap")
	}
	if got := probeWith(ps.bitmap, mixed, []int{0, 1}, nil); len(got) != len(mixed) {
		t.Fatalf("a two-column bitmap filter kept %d of %d lanes; it must pass everything", len(got), len(mixed))
	}
}

// countingSummary is a hashed summary that records the lanes it is asked
// about.
type countingSummary struct {
	filter.Summary
	seen []int32
}

func (c *countingSummary) MayContainHashBatch(hashes []uint64, sel, out []int32, keyAt func(int32) []byte) []int32 {
	c.seen = append(c.seen, sel...)
	return c.Summary.MayContainHashBatch(hashes, sel, out, keyAt)
}

// TestFilterBankProbesBitmapsFirst: a bank keeps its one-column bitmaps
// ahead of its hashed summaries, whatever the attach order, so a hashed
// summary attached before a bitmap is asked only about the bitmap's
// survivors — in a scan's probe and an operator input's — and the bank keeps
// the rows it keeps with the two attached the other way round.
func TestFilterBankProbesBitmapsFirst(t *testing.T) {
	ps := probeSiteBench(t)
	rows := ps.tab.Rows[:4*scanChunkRows]
	sel := identSel(scanChunkRows)
	for _, vecs := range []expr.ColumnVectors{ps.tab, nil} {
		// probe returns the lanes each chunk keeps, chunk after chunk.
		probe := func(sums ...filter.Summary) []int32 {
			bank := NewFilterBank()
			for _, s := range sums {
				bank.Attach(ps.keyCols, s)
			}
			sc := ProbeScratch{vecs: vecs}
			var kept []int32
			for lo := 0; lo < len(rows); lo += scanChunkRows {
				sc.vecLo = lo
				kept = append(kept, bank.ProbeBatch(rows[lo:lo+scanChunkRows], nil, sel, nil, &sc)...)
			}
			return kept
		}
		passed := probe(ps.bitmap)
		fake := &countingSummary{Summary: ps.bloom}
		got := probe(fake, ps.bitmap)
		if len(passed) == 0 || !slices.Equal(fake.seen, passed) {
			t.Fatalf("vecs=%v: the hashed summary saw %d lanes, the bitmap kept %d", vecs != nil, len(fake.seen), len(passed))
		}
		if want := probe(ps.bitmap, &countingSummary{Summary: ps.bloom}); !slices.Equal(got, want) {
			t.Fatalf("vecs=%v: kept %d lanes, %d with the bitmap attached first", vecs != nil, len(got), len(want))
		}
	}
}

var benchSink int

// BenchmarkScanSift: a part scan's pushed string predicate at SF 0.05 — Q17's
// p_brand = 'Brand#34' (25 distinct strings) and Q5A's p_name LIKE '%black%'
// (one distinct string a row) — sifted chunk by chunk on the typed kernel
// over dictionary codes (typed: a fresh worker every pass, so each code is
// decided again, as each query's scan decides it) and on the row kernel (row:
// Compiled.EvalBool over the rows), ns/row.
func BenchmarkScanSift(b *testing.B) {
	part, err := tpch.Generate(tpch.Config{ScaleFactor: 0.05, Seed: 2008}).Table("part")
	if err != nil {
		b.Fatal(err)
	}
	col := func(name string) *expr.ColRef {
		i := part.ColumnIndex(name)
		part.StrCodes(i) // build the lazy sidecar outside the timed loop
		return &expr.ColRef{Idx: i, Col: part.Schema.Cols[i]}
	}
	scan := &Scan{Name: "part", Rows: part.Rows, Sch: part.Schema, Vecs: part}
	n := len(part.Rows)
	for _, tc := range []struct {
		name string
		pred expr.Expr
	}{
		{"eq", &expr.Binary{Op: expr.OpEq, L: col("p_brand"), R: &expr.Const{V: types.Str("Brand#34")}}},
		{"like", &expr.Like{E: col("p_name"), Pattern: "%black%"}},
	} {
		b.Run(tc.name+"/typed", func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				w := scan.newWorker(tc.pred)
				if w.coded != 1 || w.rest != nil {
					b.Fatalf("%s did not compile to one kernel over codes", tc.pred)
				}
				for lo := 0; lo < n; lo += scanChunkRows {
					hits += len(w.sift(scan, lo, min(lo+scanChunkRows, n)))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			benchSink = hits
		})
		b.Run(tc.name+"/row", func(b *testing.B) {
			pred := expr.Compile(tc.pred)
			out := make([]int32, 0, scanChunkRows)
			hits := 0
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += scanChunkRows {
					hi := min(lo+scanChunkRows, n)
					hits += len(pred.EvalBool(part.Rows[lo:hi], identSel(hi-lo), out))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			benchSink = hits
		})
	}
}
