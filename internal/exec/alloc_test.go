package exec

import (
	"testing"

	"repro/internal/bloom"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/stats"
	"repro/internal/types"
)

// TestJoinProbeZeroAllocs is the hot-path allocation regression gate: once
// the hasher scratch and probe buffers are warm, hashing a tuple's key,
// probing the AIP filter bank, and probing the open-addressing join table
// must not allocate at all. This is the per-probed-tuple path of
// HashJoin.Start's consume loop.
func TestJoinProbeZeroAllocs(t *testing.T) {
	keys := []int{0}

	// A populated join table with a realistic mix of hit and miss keys.
	var jt joinTable
	for i := 0; i < 1024; i++ {
		tup := types.Tuple{types.Int(int64(i)), types.Int(int64(i * 2))}
		h, key := keyOf(tup, keys)
		jt.insert(h, key, tup, uint64(i+1))
	}

	// An AIP bank with both summary kinds attached over the key column.
	bank := NewFilterBank()
	bf := bloom.NewBlocked(1024, 0.05)
	hs := filter.NewHashSet(64)
	for i := 0; i < 1024; i++ {
		key := types.Tuple{types.Int(int64(i))}.AppendKeyCols(nil, []int{0})
		bf.Add(key)
		hs.Add(key)
	}
	bank.Attach([]int{0}, filter.Blocked{F: bf})
	bank.Attach([]int{0}, hs)

	probes := make([]types.Tuple, 256)
	for i := range probes {
		probes[i] = types.Tuple{types.Int(int64(i * 3)), types.Int(0)}
	}

	var key, bankBuf []byte
	matchBuf := make([]types.Tuple, 0, 4096)
	sink := 0
	allocs := testing.AllocsPerRun(100, func() {
		matchBuf = matchBuf[:0]
		for _, tup := range probes {
			key = tup.AppendKeyCols(key[:0], keys)
			h := types.Hash64(key, 0)
			if !bank.probeHashed(tup, keys, h, key, &bankBuf) {
				continue
			}
			matchBuf = jt.probe(h, key, ^uint64(0), matchBuf)
		}
		sink += len(matchBuf)
	})
	if sink == 0 {
		t.Fatal("probe loop matched nothing — test is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("join probe hot path allocates %.1f times per 256 tuples, want 0", allocs)
	}
}

// keyOf is a key's hash and canonical bytes, as a router computes them for a
// key that is not integer-backed.
func keyOf(t types.Tuple, cols []int) (uint64, []byte) {
	key := t.AppendKeyCols(nil, cols)
	return types.Hash64(key, 0), key
}

// TestKeyTableLookupZeroAllocs pins the table probe itself.
func TestKeyTableLookupZeroAllocs(t *testing.T) {
	kt := types.NewKeyTable(512)
	for i := 0; i < 512; i++ {
		kt.Insert(keyOf(types.Tuple{types.Int(int64(i))}, []int{0}))
	}
	var key []byte
	hits := 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			key = types.AppendIntKey(key[:0], int64(i))
			if kt.Lookup(types.Hash64(key, 0), key) >= 0 {
				hits++
			}
		}
	})
	if hits == 0 {
		t.Fatal("no hits — test is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("KeyTable lookup allocates %.1f times per 1024 probes, want 0", allocs)
	}
}

// TestJoinTableShortCircuitInterplay exercises the open-addressing table
// against the §VI-A short-circuit: the drained side keeps probing the
// completed side's table and must still see every earlier-ticket match,
// while its own table stays empty.
func TestJoinTableShortCircuitInterplay(t *testing.T) {
	var completed joinTable
	for i := 0; i < 100; i++ {
		tup := types.Tuple{types.Int(int64(i % 10)), types.Int(int64(i))}
		h, key := keyOf(tup, []int{0})
		completed.insert(h, key, tup, uint64(i+1))
	}
	// Probing with a later ticket sees all 10 stored duplicates per key;
	// probing with ticket 1 sees none (nothing was stored earlier).
	h, key := keyOf(types.Tuple{types.Int(3), types.Int(0)}, []int{0})
	if got := len(completed.probe(h, key, ^uint64(0), nil)); got != 10 {
		t.Fatalf("late probe saw %d matches, want 10", got)
	}
	if got := len(completed.probe(h, key, 1, nil)); got != 0 {
		t.Fatalf("ticket-1 probe saw %d matches, want 0", got)
	}
	// Ticket cutoffs fall mid-chain: key 3 is stored at tickets 4, 14, …, 94.
	if got := len(completed.probe(h, key, 15, nil)); got != 2 {
		t.Fatalf("ticket-15 probe saw %d matches, want 2", got)
	}
}

// TestAggFoldZeroAllocs: folding a scatter into groups that already exist
// allocates nothing on either path — arguments read from the column vectors
// by row id (a routing scan's scatter) or evaluated over row headers by the
// batch kernels (a router's) — across the whole routedAggs matrix.
func TestAggFoldZeroAllocs(t *testing.T) {
	f := newRoutedFixture(4 * BatchSize)
	aggs, _ := routedAggs(f.sch)
	h := NewHashAgg("a", nil, []expr.Expr{&expr.ColRef{Idx: 0, Col: f.sch.Cols[0]}}, aggs, nil)
	tab := &catalog.Table{Name: "l", Schema: f.sch, Rows: f.rows}
	for _, routed := range []bool{true, false} {
		var vecs TableVectors
		sb := getScatter(0)
		if routed {
			vecs, sb.src = tab, &rowSource{rows: f.rows}
		}
		var kb []byte
		for i, r := range f.rows {
			if routed {
				sb.addRow(int32(i), types.HashIntKey(r[0].I), []int64{r[0].I})
			} else {
				kb = types.AppendIntKey(kb[:0], r[0].I)
				sb.add(r, types.HashIntKey(r[0].I), kb)
			}
		}
		w := h.newWorker(0, vecs)
		st := newAggState(1, aggs)
		if groups, _ := w.fold(&st, sb); groups != int64(len(f.rows)) {
			t.Fatalf("routed=%v: first fold made %d groups, want %d", routed, groups, len(f.rows))
		}
		if allocs := testing.AllocsPerRun(10, func() { w.fold(&st, sb) }); allocs != 0 {
			t.Fatalf("routed=%v: folding into existing groups allocates %.1f objects per scatter, want 0", routed, allocs)
		}
		if got := st.cols[0].result(0); got.I != 12 { // count(*): the first fold, the warm-up and 10 runs
			t.Fatalf("routed=%v: count(*) = %v after 12 folds", routed, got)
		}
		putScatter(sb)
	}
}

// TestRouterLanesZeroAllocs: a router's lanes — the bank probe, the key of
// every survivor and its scatter — allocate nothing per batch once warm, in
// both key forms: integer words (an INT key with a NULL lane, which the
// equi-join drops) and the canonical bytes a batch holding a DECIMAL key
// falls back to, behind a bank holding a bitmap and a Bloom filter.
func TestRouterLanesZeroAllocs(t *testing.T) {
	bm := filter.NewBitmap(0, 4095)
	bf := bloom.NewBlocked(2048, bloom.DefaultFPR)
	for v := int64(0); v < 4096; v += 2 {
		bm.Add(v)
		bf.AddHash(types.HashIntKey(v))
	}
	bank := NewFilterBank()
	bank.Attach([]int{0}, filter.Blocked{F: bf})
	bank.Attach([]int{0}, bm)
	ctx := NewContext(stats.NewRegistry(), nil)
	for _, form := range []string{"words", "bytes"} {
		tuples := make([]types.Tuple, BatchSize)
		for i := range tuples {
			tuples[i] = types.Tuple{types.Int(int64(i * 7 % 4096)), types.Int(int64(i))}
		}
		tuples[5][0] = types.Null()
		if form == "bytes" {
			tuples[9][0] = types.Float(18)
		}
		rt := testRoute(&Point{Bank: bank}, []int{0}, 4)
		var sc ProbeScratch
		out := make([]int32, 0, BatchSize)
		lanes := func() {
			rt.lanes(ctx, &sc, tuples, identSel(len(tuples)), out[:0], -1)
			rt.recycle()
		}
		lanes() // warm: sizes the scratch and the scatters
		if allocs := testing.AllocsPerRun(50, lanes); allocs != 0 {
			t.Fatalf("%s: router lanes allocate %.1f objects per batch, want 0", form, allocs)
		}
		words, bytes := rt.op.WordBatches.Load(), rt.op.ByteBatches.Load()
		if (form == "words") != (words > 0 && bytes == 0) {
			t.Fatalf("%s: keyed %d batches as words, %d as bytes", form, words, bytes)
		}
	}
}
