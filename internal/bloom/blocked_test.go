package bloom

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func blockedForKeys(t *testing.T, hashes []uint64) *Blocked {
	t.Helper()
	f := NewBlocked(len(hashes), DefaultFPR)
	for _, h := range hashes {
		f.AddHash(h)
	}
	return f
}

func TestBlockedNoFalseNegatives(t *testing.T) {
	hashes := make([]uint64, 5000)
	for i := range hashes {
		hashes[i] = splitmix64(uint64(i))
	}
	f := blockedForKeys(t, hashes)
	for i, h := range hashes {
		if !f.ProbeHash(h) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	sel := make([]int32, len(hashes))
	for i := range sel {
		sel[i] = int32(i)
	}
	out := f.ProbeHashBatch(hashes, sel, nil)
	if len(out) != len(sel) {
		t.Fatalf("batch probe dropped present keys: %d of %d survived", len(out), len(sel))
	}
}

// TestBlockedFPRWithinBudget checks the sized geometry against its
// false-positive budget across populations and budgets.
func TestBlockedFPRWithinBudget(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{
		{10_000, 0.05},
		{100_000, 0.05},
		{100_000, 0.10},
		{50_000, 0.01},
	} {
		t.Run(fmt.Sprintf("n=%d_p=%v", tc.n, tc.p), func(t *testing.T) {
			f := NewBlocked(tc.n, tc.p)
			for i := 0; i < tc.n; i++ {
				f.AddHash(splitmix64(uint64(i)))
			}
			const probes = 200_000
			fp := 0
			for i := 0; i < probes; i++ {
				if f.ProbeHash(splitmix64(uint64(tc.n + i))) {
					fp++
				}
			}
			got := float64(fp) / probes
			// Allow 1.3× the budget for sampling noise; the sizing itself
			// targets comfortably under the budget.
			if got > 1.3*tc.p {
				t.Fatalf("measured FPR %.4f exceeds budget %.4f", got, tc.p)
			}
		})
	}
}

// TestBlockedFPRNotWorseThanFlatAtEqualBits is the property the blocked
// layout ships on: at the SAME total bit budget, confining a key's bits to
// one cache line must not cost more than 1.5× the flat filter's
// false-positive rate. (In practice the blocked filter is far more
// accurate bit for bit: it spends k bit positions per key where the flat
// filter's single-hash design spends one.)
func TestBlockedFPRNotWorseThanFlatAtEqualBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 5_000 + rng.Intn(50_000)
		// Sweep budgets; both filters get the FLAT geometry's bit count.
		p := []float64{0.01, 0.05, 0.1}[trial%3]
		bits := BitsFor(n, p)
		flat := NewWithBits(bits, 0)
		blocked := NewBlockedWithGeometry(bits, BlockedKFor(n, bits), 0)
		base := rng.Uint64()
		for i := 0; i < n; i++ {
			h := splitmix64(base + uint64(i))
			flat.AddHash(h)
			blocked.AddHash(h)
		}
		const probes = 100_000
		flatFP, blockedFP := 0, 0
		for i := 0; i < probes; i++ {
			h := splitmix64(base + uint64(n+i))
			if flat.ProbeHash(h) {
				flatFP++
			}
			if blocked.ProbeHash(h) {
				blockedFP++
			}
		}
		// Epsilon absorbs sampling noise when both rates are near zero.
		const eps = 0.002
		if float64(blockedFP) > 1.5*float64(flatFP)+eps*probes {
			t.Fatalf("trial %d (n=%d p=%v bits=%d): blocked FPR %.5f > 1.5x flat FPR %.5f",
				trial, n, p, bits, float64(blockedFP)/probes, float64(flatFP)/probes)
		}
	}
}

// TestBlockedBatchMatchesScalar is the batch-vs-scalar differential: the
// batch kernel must agree with the scalar probe lane for lane, including
// the empty-sel, all-pass, and all-fail edges.
func TestBlockedBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	present := make([]uint64, 20_000)
	for i := range present {
		present[i] = rng.Uint64()
	}
	f := blockedForKeys(t, present)
	empty := NewBlocked(len(present), DefaultFPR)

	check := func(name string, f *Blocked, hashes []uint64, sel []int32) {
		t.Helper()
		var want []int32
		for _, i := range sel {
			if f.ProbeHash(hashes[i]) {
				want = append(want, i)
			}
		}
		got := f.ProbeHashBatch(hashes, sel, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: batch survivors %d, scalar %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: survivor %d: batch lane %d, scalar lane %d", name, i, got[i], want[i])
			}
		}
	}

	// Mixed random stream, random subsets of lanes.
	probes := make([]uint64, 4096)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = present[rng.Intn(len(present))]
		} else {
			probes[i] = rng.Uint64()
		}
	}
	full := make([]int32, len(probes))
	for i := range full {
		full[i] = int32(i)
	}
	check("mixed/full", f, probes, full)
	sub := full[:0:0]
	for _, i := range full {
		if rng.Intn(3) == 0 {
			sub = append(sub, i)
		}
	}
	check("mixed/subset", f, probes, sub)
	check("empty-sel", f, probes, nil)
	check("all-pass", f, present[:4096], full)
	// An empty filter rejects everything: the all-fail edge with no
	// false-positive escape hatch.
	check("all-fail", empty, probes, full)
	if got := empty.ProbeHashBatch(probes, full, nil); len(got) != 0 {
		t.Fatalf("empty filter passed %d lanes", len(got))
	}
	// Odd chunk tails: selections not divisible by the internal window.
	check("tail", f, probes, full[:batchChunk+batchChunk/2+1])
}

// TestAddHashBatchMatchesScalar: batch insertion must produce a
// bit-identical filter to one-at-a-time insertion.
func TestAddHashBatchMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, batchChunk - 1, batchChunk, batchChunk + 1, 10_000} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = splitmix64(uint64(i))
		}
		a := NewBlocked(1000, DefaultFPR)
		b := NewBlockedWithGeometry(a.NumBits(), a.K(), 0)
		for _, h := range hashes {
			a.AddHash(h)
		}
		b.AddHashBatch(hashes)
		if !slices.Equal(a.words, b.words) {
			t.Fatalf("n=%d: batch insertion diverged from scalar", n)
		}
	}
}

// TestBlockedVsFlatDifferential: the two layouts disagree on WHICH absent
// keys false-positive, but must agree exactly on present keys (no false
// negatives in either) across a shared insertion stream.
func TestBlockedVsFlatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30_000
	flat := New(n, DefaultFPR)
	blocked := NewBlocked(n, DefaultFPR)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d-%d", i, rng.Int63()))
		flat.Add(keys[i])
		blocked.Add(keys[i])
	}
	for i, k := range keys {
		if !flat.Contains(k) {
			t.Fatalf("flat false negative at %d", i)
		}
		if !blocked.Contains(k) {
			t.Fatalf("blocked false negative at %d", i)
		}
	}
}

func TestBlockedGeometryEdges(t *testing.T) {
	// n = 0 and tiny n must round up to one whole block, never underflow.
	for _, n := range []int{0, 1, 2, 7} {
		bits := BlockedBitsFor(n, DefaultFPR)
		if bits < BlockBits || bits%BlockBits != 0 {
			t.Fatalf("BlockedBitsFor(%d) = %d: want whole blocks >= %d", n, bits, BlockBits)
		}
		if k := BlockedKFor(n, bits); k < 1 || k > MaxBlockedK {
			t.Fatalf("BlockedKFor(%d, %d) = %d out of [1,%d]", n, bits, k, MaxBlockedK)
		}
	}
	// Degenerate budgets fall back to the default rather than exploding.
	if bits := BlockedBitsFor(100, 0); bits == 0 || bits%BlockBits != 0 {
		t.Fatalf("BlockedBitsFor(100, 0) = %d", bits)
	}
	if bits := BlockedBitsFor(100, 1.5); bits == 0 || bits%BlockBits != 0 {
		t.Fatalf("BlockedBitsFor(100, 1.5) = %d", bits)
	}
	// Geometry constructor normalizes sub-block sizes and out-of-range k.
	f := NewBlockedWithGeometry(1, 0, 0)
	if f.NumBits() != BlockBits || f.K() != 1 {
		t.Fatalf("normalized geometry: bits=%d k=%d", f.NumBits(), f.K())
	}
	f = NewBlockedWithGeometry(BlockBits+1, 99, 0)
	if f.NumBits() != 2*BlockBits || f.K() != MaxBlockedK {
		t.Fatalf("rounded geometry: bits=%d k=%d", f.NumBits(), f.K())
	}
	// A tiny filter stays usable.
	tiny := NewBlocked(0, DefaultFPR)
	tiny.Add([]byte("x"))
	if !tiny.Contains([]byte("x")) {
		t.Fatal("tiny filter lost its only key")
	}
}

func TestBlockedIntersect(t *testing.T) {
	n := 5000
	a := NewBlocked(n, DefaultFPR)
	b := NewBlockedWithGeometry(a.NumBits(), a.K(), 0)
	shared := make([]uint64, 0, n/2)
	for i := 0; i < n; i++ {
		h := splitmix64(uint64(i))
		if i%2 == 0 {
			a.AddHash(h)
			b.AddHash(h)
			shared = append(shared, h)
		} else if i%4 == 1 {
			a.AddHash(h)
		} else {
			b.AddHash(h)
		}
	}
	before := slices.Clone(a.words)
	if err := a.IntersectWith(b); err != nil {
		t.Fatal(err)
	}
	for _, h := range shared {
		if !a.ProbeHash(h) {
			t.Fatal("intersection lost a shared key")
		}
	}
	for i, w := range a.words {
		if w != before[i]&b.words[i] {
			t.Fatalf("word %d: %#x, want %#x & %#x", i, w, before[i], b.words[i])
		}
	}
	// Incompatible geometries refuse to merge.
	other := NewBlockedWithGeometry(a.NumBits()+BlockBits, a.K(), 0)
	if err := a.IntersectWith(other); err == nil {
		t.Fatal("intersect across geometries should fail")
	}
}

// TestIntersectIncompatible: filters merge only when block count, probe
// count and seed all agree; each mismatch alone refuses.
func TestIntersectIncompatible(t *testing.T) {
	a := NewBlocked(1000, DefaultFPR)
	for name, b := range map[string]*Blocked{
		"blocks": NewBlockedWithGeometry(a.NumBits()+BlockBits, a.K(), 0),
		"k":      NewBlockedWithGeometry(a.NumBits(), a.K()%MaxBlockedK+1, 0),
		"seed":   NewBlockedWithGeometry(a.NumBits(), a.K(), 7),
	} {
		if a.Compatible(b) {
			t.Fatalf("%s mismatch reported compatible", name)
		}
		if err := a.IntersectWith(b); err == nil {
			t.Fatalf("%s mismatch: intersect should fail", name)
		}
	}
	if a.Compatible(nil) {
		t.Fatal("nil is not compatible")
	}
}

func TestSizeBytes(t *testing.T) {
	f := NewBlocked(1000, DefaultFPR)
	if want := int(BlockedBitsFor(1000, DefaultFPR) / 8); f.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", f.SizeBytes(), want)
	}
}

func TestQuickIntersectionPreservesSharedKeys(t *testing.T) {
	f := func(shared [][]byte) bool {
		a := NewBlockedWithGeometry(4096, 3, 0)
		b := NewBlockedWithGeometry(4096, 3, 0)
		for _, k := range shared {
			a.Add(k)
			b.Add(k)
		}
		if err := a.IntersectWith(b); err != nil {
			return false
		}
		for _, k := range shared {
			if !a.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockedConcurrentAddHash: P writers adding to one filter at once —
// each the keys whose hash's top bits route them to its slot, as the
// executor's radix partitioning routes tuples, plus a share of keys every
// writer adds — must leave bit for bit the filter that one-by-one insertion
// builds.
func TestBlockedConcurrentAddHash(t *testing.T) {
	for _, n := range []int{0, 10, 500, 5_000, 200_000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			nbits := BlockedBitsFor(n, DefaultFPR)
			k := BlockedKFor(n, nbits)
			direct := NewBlockedWithGeometry(nbits, k, 0)
			for i := 0; i < n; i++ {
				direct.AddHash(splitmix64(uint64(i)))
			}
			const P = 8
			shared := NewBlockedWithGeometry(nbits, k, 0)
			var wg sync.WaitGroup
			for slot := uint64(0); slot < P; slot++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if h := splitmix64(uint64(i)); h>>61 == slot || i%16 == 0 {
							shared.AddHash(h)
						}
					}
				}()
			}
			wg.Wait()
			if !slices.Equal(direct.words, shared.words) {
				t.Fatal("concurrent insertion diverged from one-by-one insertion")
			}
		})
	}
}
