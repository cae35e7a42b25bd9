package exec

import (
	"math/rand"
	"testing"

	"repro/internal/bloom"
	"repro/internal/filter"
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
// exercises the primary arrays, the alt-compute fallback, and the keyAt
// path at once.
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

	var hasher types.Hasher
	var buf []byte
	scalar := func(sel []int32) []int32 {
		var want []int32
		for _, i := range sel {
			h, key := hasher.KeyCols(tuples[i], keyCols)
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
// and tuple stream (single blocked filter over the probing key columns —
// the common AIP shape).
func probeSiteBench() (*FilterBank, []int, []types.Tuple) {
	const n = 1 << 18
	keyCols := []int{0}
	var kb []byte
	f := bloom.NewBlocked(n, bloom.DefaultFPR)
	for i := 0; i < n; i++ {
		kb = types.Tuple{types.Int(int64(i))}.AppendKeyCols(kb[:0], keyCols)
		f.AddHash(types.Hash64(kb, 0))
	}
	bank := NewFilterBank()
	bank.Attach(keyCols, filter.Blocked{F: f})
	tuples := make([]types.Tuple, 1<<14)
	for i := range tuples {
		tuples[i] = types.Tuple{types.Int(int64(i * 7 % (2 * n)))}
	}
	return bank, keyCols, tuples
}

func BenchmarkProbeSiteScalar(b *testing.B) {
	bank, keyCols, tuples := probeSiteBench()
	var hasher types.Hasher
	var buf []byte
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for j := range tuples {
			h, key := hasher.KeyCols(tuples[j], keyCols)
			if bank.probeHashed(tuples[j], keyCols, h, key, &buf) {
				hits++
			}
		}
	}
	benchSink = hits
}

func BenchmarkProbeSiteBatch(b *testing.B) {
	bank, keyCols, tuples := probeSiteBench()
	var sc ProbeScratch
	const window = 4096
	sel := make([]int32, window)
	for i := range sel {
		sel[i] = int32(i)
	}
	out := make([]int32, 0, window)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for start := 0; start+window <= len(tuples); start += window {
			out = bank.ProbeBatch(tuples[start:start+window], keyCols, sel, out[:0], &sc)
			hits += len(out)
		}
	}
	benchSink = hits
}

var benchSink int
