package filter

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

// TestBitmapDomainEdges: over each domain — positive, negative, across
// zero, a single value, near the int64 limits — the values at lo and hi are
// held exactly, lo−1 and hi+1 are absent (and Add refuses them), and every
// probe entry point (Contains, the key bytes, the vector kernel) agrees
// with an exact set of the added values.
func TestBitmapDomainEdges(t *testing.T) {
	for _, d := range []struct{ lo, hi int64 }{
		{1, 10000}, {-500, -3}, {-64, 63}, {7, 7}, {0, 0}, {-1, 0},
		{math.MaxInt64 - 200, math.MaxInt64}, {math.MinInt64, math.MinInt64 + 129},
	} {
		b := NewBitmap(d.lo, d.hi)
		if lo, hi := domain(b); lo != d.lo || hi != d.hi {
			t.Fatalf("[%d, %d]: domain [%d, %d]", d.lo, d.hi, lo, hi)
		}
		span := uint64(d.hi) - uint64(d.lo) + 1
		if want := int((span + 63) / 64 * 8); b.SizeBytes() != want {
			t.Fatalf("[%d, %d]: %d bytes, want %d", d.lo, d.hi, b.SizeBytes(), want)
		}
		in := map[int64]bool{}
		for _, v := range []int64{d.lo, d.hi, d.lo + (d.hi-d.lo)/2} {
			if !b.Add(v) {
				t.Fatalf("[%d, %d]: Add(%d) refused an in-domain value", d.lo, d.hi, v)
			}
			in[v] = true
		}
		var probes []int64
		for _, v := range []int64{d.lo, d.hi, d.lo + 1, d.hi - 1, d.lo + (d.hi-d.lo)/2} {
			probes = append(probes, v)
		}
		if d.lo != math.MinInt64 {
			probes = append(probes, d.lo-1)
			if b.Add(d.lo - 1) {
				t.Fatalf("[%d, %d]: Add(lo-1) accepted", d.lo, d.hi)
			}
		}
		if d.hi != math.MaxInt64 {
			probes = append(probes, d.hi+1)
			if b.Add(d.hi + 1) {
				t.Fatalf("[%d, %d]: Add(hi+1) accepted", d.lo, d.hi)
			}
		}
		probes = append(probes, math.MinInt64, math.MaxInt64, 0)
		var sel []int32
		var want []int32
		for l, v := range probes {
			sel = append(sel, int32(l))
			if in[v] {
				want = append(want, int32(l))
			}
			key := types.AppendIntKey(nil, v)
			if b.Contains(v) != in[v] || b.MayContainKey(key) != in[v] || b.MayContainHash(types.Hash64(key, 0), key) != in[v] {
				t.Fatalf("[%d, %d]: probe of %d disagrees with the exact set (%v)", d.lo, d.hi, v, in[v])
			}
		}
		if got := b.ProbeInts(probes, sel, nil); !slices.Equal(got, want) {
			t.Fatalf("[%d, %d]: ProbeInts kept %v, want %v", d.lo, d.hi, got, want)
		}
		if got := b.ProbeInts(probes, sel, sel[:0]); !slices.Equal(got, want) { // in place
			t.Fatalf("[%d, %d]: in-place ProbeInts kept %v, want %v", d.lo, d.hi, got, want)
		}
		if b.Len() != len(in) {
			t.Fatalf("[%d, %d]: Len %d, want %d", d.lo, d.hi, b.Len(), len(in))
		}
	}
}

// TestBitmapOtherKeys: a key that is not integer-tagged — NULL, a
// non-integral DECIMAL, a string, a two-column key — passes every probe; a
// DECIMAL holding an integer encodes as that integer and is probed exactly.
func TestBitmapOtherKeys(t *testing.T) {
	b := NewBitmap(1, 100)
	b.Add(3)
	keys := [][]byte{
		types.Null().AppendKey(nil),
		types.Float(3.5).AppendKey(nil),
		types.Str("3").AppendKey(nil),
		types.Tuple{types.Int(3), types.Int(4)}.AppendKeyCols(nil, []int{0, 1}),
		types.Float(3).AppendKey(nil), // == INTEGER 3
		types.Float(4).AppendKey(nil), // == INTEGER 4, absent
	}
	sel := []int32{0, 1, 2, 3, 4, 5}
	got := b.MayContainHashBatch(nil, sel, nil, func(l int32) []byte { return keys[l] })
	if want := []int32{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("keyAt probe kept %v, want %v", got, want)
	}
}

// TestBitmapIntersect: the word-wise AND keeps exactly the common values;
// another domain is refused.
func TestBitmapIntersect(t *testing.T) {
	a, b := NewBitmap(-10, 200), NewBitmap(-10, 200)
	for v := int64(-10); v <= 200; v++ {
		if v%2 == 0 {
			a.Add(v)
		}
		if v%3 == 0 {
			b.Add(v)
		}
	}
	if err := a.IntersectWith(b); err != nil {
		t.Fatal(err)
	}
	for v := int64(-10); v <= 200; v++ {
		if a.Contains(v) != (v%6 == 0) {
			t.Fatalf("after AND, Contains(%d) = %v", v, a.Contains(v))
		}
	}
	if a.IntersectWith(NewBitmap(-10, 201)) == nil || a.IntersectWith(NewBitmap(-9, 200)) == nil {
		t.Fatal("intersecting bitmaps over different domains must fail")
	}
}

// TestBitmapConcurrentAdd: writers sharing one bitmap (the Feed-forward
// working set of a partitioned producer) lose no value.
func TestBitmapConcurrentAdd(t *testing.T) {
	b := NewBitmap(0, 4095)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(w); v < 4096; v += 4 {
				b.Add(v)
				b.Add(4095 - v)
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != 4096 {
		t.Fatalf("concurrent adds kept %d of 4096 values", b.Len())
	}
}

// domain returns b's [lo, hi].
func domain(b *Bitmap) (lo, hi int64) { return b.lo, int64(uint64(b.lo) + b.n - 1) }

// Len counts the values present.
func (b *Bitmap) Len() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestBitmapProbeRunMatchesProbeInts: the run kernel keeps exactly what
// ProbeInts keeps under the identity selection, over domains with a last
// partial word, a negative one and a full last word, for runs of every length
// 0–7 and lengths that are no multiple of 4, holding values below lo, above
// hi, at lo and at hi, the int64 limits and in-domain misses — into a fresh
// out and into out aliasing the selection's [:0].
func TestBitmapProbeRunMatchesProbeInts(t *testing.T) {
	r := rand.New(rand.NewSource(0x6B17))
	for _, d := range []struct{ lo, hi int64 }{{1, 100}, {-300, -41}, {0, 127}, {5, 5}, {math.MaxInt64 - 70, math.MaxInt64}} {
		b := NewBitmap(d.lo, d.hi)
		for v := d.lo; ; v++ {
			if r.Intn(3) == 0 || v == d.hi {
				b.Add(v)
			}
			if v == d.hi {
				break
			}
		}
		pool := []int64{d.lo, d.hi, d.lo - 1, d.hi + 1, math.MinInt64, math.MaxInt64, 0, -1}
		for i := 0; i < 16; i++ {
			pool = append(pool, d.lo+int64(r.Intn(int(d.hi-d.lo)+1)))
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 13, 64, 1023} {
			vec := make([]int64, n)
			for i := range vec {
				vec[i] = pool[r.Intn(len(pool))]
			}
			sel := make([]int32, n)
			for i := range sel {
				sel[i] = int32(i)
			}
			want := b.ProbeInts(vec, sel, nil)
			if got := b.ProbeRun(vec, nil); !slices.Equal(got, want) {
				t.Fatalf("[%d, %d] n=%d: ProbeRun kept %v, ProbeInts %v", d.lo, d.hi, n, got, want)
			}
			if got := b.ProbeRun(vec, sel[:0]); !slices.Equal(got, want) {
				t.Fatalf("[%d, %d] n=%d: ProbeRun into sel[:0] kept %v, ProbeInts %v", d.lo, d.hi, n, got, want)
			}
		}
	}
}
