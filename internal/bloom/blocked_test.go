package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
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
		if !bytes.Equal(a.Marshal(), b.Marshal()) {
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

func TestBlockedIntersectUnion(t *testing.T) {
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
	inter := a.Clone()
	if err := inter.IntersectWith(b); err != nil {
		t.Fatal(err)
	}
	for _, h := range shared {
		if !inter.ProbeHash(h) {
			t.Fatal("intersection lost a shared key")
		}
	}
	uni := a.Clone()
	if err := uni.UnionWith(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !uni.ProbeHash(splitmix64(uint64(i))) {
			t.Fatalf("union lost key %d", i)
		}
	}
	// Incompatible geometries refuse to merge.
	other := NewBlockedWithGeometry(a.NumBits()+BlockBits, a.K(), 0)
	if err := a.Clone().IntersectWith(other); err == nil {
		t.Fatal("intersect across geometries should fail")
	}
	if err := a.Clone().UnionWith(other); err == nil {
		t.Fatal("union across geometries should fail")
	}
}

func TestBlockedMarshalRoundTrip(t *testing.T) {
	f := NewBlocked(1000, DefaultFPR)
	for i := 0; i < 1000; i++ {
		f.AddHash(splitmix64(uint64(i)))
	}
	g, err := UnmarshalBlocked(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Marshal(), g.Marshal()) {
		t.Fatal("round trip diverged")
	}
	if g.Len() != f.Len() || g.K() != f.K() || g.NumBits() != f.NumBits() {
		t.Fatal("round trip lost metadata")
	}
	if _, err := UnmarshalBlocked([]byte("short")); err == nil {
		t.Fatal("malformed payload accepted")
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

func TestClone(t *testing.T) {
	a := NewBlocked(100, DefaultFPR)
	a.Add([]byte("x"))
	before := append([]uint64(nil), a.words...)
	b := a.Clone()
	b.Add([]byte("y"))
	if !b.Contains([]byte("x")) || b.Len() != 2 {
		t.Fatal("clone must keep contents")
	}
	if a.Len() != 1 || !slices.Equal(a.words, before) {
		t.Fatal("adding to the clone changed the original")
	}
}

func TestUnmarshalMalformed(t *testing.T) {
	if _, err := UnmarshalBlocked(nil); err == nil {
		t.Fatal("nil payload must error")
	}
	if _, err := UnmarshalBlocked(make([]byte, 33)); err == nil {
		t.Fatal("misaligned payload must error")
	}
	good := NewBlocked(100, DefaultFPR).Marshal()
	for name, corrupt := range map[string]func([]byte){
		"blocks": func(d []byte) { d[7]++ },      // word count disagrees
		"k=0":    func(d []byte) { d[15] = 0 },   // no probe bits
		"k>max":  func(d []byte) { d[15] = 200 }, // beyond MaxBlockedK
	} {
		d := append([]byte(nil), good...)
		corrupt(d)
		if _, err := UnmarshalBlocked(d); err == nil {
			t.Fatalf("%s: inconsistent header accepted", name)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	f := NewBlocked(1000, DefaultFPR)
	if want := int(BlockedBitsFor(1000, DefaultFPR) / 8); f.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", f.SizeBytes(), want)
	}
	if got := len(f.Marshal()); got != 32+f.SizeBytes() {
		t.Fatalf("shipped %d bytes for a %d-byte filter", got, f.SizeBytes())
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

// TestPartialMergeExactness: merging per-slot Partials — in both the
// hash-log stage and the striped stage — must produce bit-for-bit the
// filter that direct insertion builds, with slots routed by the hash's top
// bits exactly as the executor's radix partitioning routes tuples.
func TestPartialMergeExactness(t *testing.T) {
	for _, n := range []int{0, 10, 500, 5_000, 200_000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			nbits := BlockedBitsFor(n, DefaultFPR)
			k := BlockedKFor(n, nbits)
			direct := NewBlockedWithGeometry(nbits, k, 0)
			const P = 8
			slots := make([]*Partial, P)
			for i := range slots {
				slots[i] = NewPartial(nbits, k, 0)
			}
			for i := 0; i < n; i++ {
				h := splitmix64(uint64(i))
				direct.AddHash(h)
				slots[h>>61].AddHash(h)
			}
			merged := NewBlockedWithGeometry(nbits, k, 0)
			var ws int
			for _, s := range slots {
				ws += s.SizeBytes()
				if err := s.MergeInto(merged); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(direct.Marshal(), merged.Marshal()) {
				t.Fatal("striped merge diverged from direct insertion")
			}
			if merged.Len() != direct.Len() {
				t.Fatalf("merged count %d, direct %d", merged.Len(), direct.Len())
			}
			// The working-set claim: striped slots must cost well under
			// P full-geometry copies once the population is partitioned.
			if n >= 5_000 {
				full := P * int(nbits) / 8
				if ws >= full/2 {
					t.Fatalf("P=%d working set %d bytes, full copies %d: striping bought <2x", P, ws, full)
				}
			}
		})
	}
}

// TestPartialLogDoubling drives one slot through the size-doubling log
// stage into stripe conversion and checks bytes accounting at each step.
func TestPartialLogDoubling(t *testing.T) {
	n := 300_000
	nbits := BlockedBitsFor(n, DefaultFPR)
	k := BlockedKFor(n, nbits)
	p := NewPartial(nbits, k, 0)
	if p.SizeBytes() != partialLogInit*8 {
		t.Fatalf("initial working set %d bytes, want %d", p.SizeBytes(), partialLogInit*8)
	}
	last := p.SizeBytes()
	grew := 0
	for i := 0; i < n; i++ {
		p.AddHash(splitmix64(uint64(i)))
		if s := p.SizeBytes(); s != last {
			grew++
			last = s
		}
	}
	if grew == 0 {
		t.Fatal("working set never grew")
	}
	if p.Len() != n {
		t.Fatalf("Len = %d, want %d", p.Len(), n)
	}
	// One slot holding the full population converts to stripes; its
	// footprint must stay bounded by the full geometry plus slack.
	if p.SizeBytes() > int(nbits)/8+int(nbits)/32 {
		t.Fatalf("converted slot costs %d bytes, full geometry is %d", p.SizeBytes(), nbits/8)
	}
	// Duplicate-heavy inserts must not grow the log (it is a set).
	q := NewPartial(nbits, k, 0)
	for i := 0; i < 10_000; i++ {
		q.AddHash(splitmix64(uint64(i % 8)))
	}
	if q.SizeBytes() != partialLogInit*8 {
		t.Fatalf("duplicates grew the log to %d bytes", q.SizeBytes())
	}
	if q.Len() != 10_000 {
		t.Fatalf("insert count %d, want 10000 (duplicates included)", q.Len())
	}
	// The zero hash collides with the log's empty sentinel; it must still
	// be stored and merged exactly.
	z := NewPartial(nbits, k, 0)
	z.AddHash(0)
	dst := NewBlockedWithGeometry(nbits, k, 0)
	if err := z.MergeInto(dst); err != nil {
		t.Fatal(err)
	}
	if !dst.ProbeHash(0) {
		t.Fatal("zero hash lost in log stage")
	}
	// Geometry mismatch is refused.
	if err := z.MergeInto(NewBlockedWithGeometry(nbits+BlockBits, k, 0)); err == nil {
		t.Fatal("merge into mismatched geometry should fail")
	}
}
