package filter

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"
)

// Bitmap is an exact AIP set over a dense integer domain [lo, hi]: one bit
// per domain value, set when a producer stores that value. Where the domain
// spans no more values than a class's Bloom filter has bits it is exact, no
// larger, and its probe computes no hash — it reads the key's integer and
// tests one bit.
//
// Keys that are not integer-tagged in the canonical encoding (NULL, a
// non-integral DECIMAL, a string) pass every probe: the set is exact over
// integers and one-sided everywhere else, so it never drops a row a Bloom
// filter would keep. A key outside [lo, hi] is absent — no producer value
// lies there; Add reports a value that does, and the caller must then not
// publish the set (nor one that was handed a value that is not an integer).
//
// Add is safe for concurrent use (test, then atomic OR); probes read the
// words plainly and must happen after the last Add (a published set is
// never written again).
type Bitmap struct {
	lo    int64
	n     uint64 // domain span in values
	words []uint64
}

// NewBitmap returns an empty bitmap over [lo, hi]. hi - lo + 1 must be a
// sensible allocation; callers bound it by the class's Bloom bits first.
func NewBitmap(lo, hi int64) *Bitmap {
	n := uint64(hi) - uint64(lo) + 1
	return &Bitmap{lo: lo, n: n, words: make([]uint64, (n+63)/64)}
}

// Add sets v's bit. It reports false, setting nothing, when v lies outside
// the domain.
func (b *Bitmap) Add(v int64) bool {
	i := uint64(v) - uint64(b.lo)
	if i >= b.n {
		return false
	}
	w, m := &b.words[i>>6], uint64(1)<<(i&63)
	if atomic.LoadUint64(w)&m == 0 {
		atomic.OrUint64(w, m)
	}
	return true
}

// Contains reports whether v's bit is set.
func (b *Bitmap) Contains(v int64) bool {
	i := uint64(v) - uint64(b.lo)
	return i < b.n && b.words[i>>6]&(1<<(i&63)) != 0
}

// MayContainKey probes a canonical key encoding: an integer-tagged key by
// its bit, any other key passes.
func (b *Bitmap) MayContainKey(key []byte) bool {
	if v, ok := intKey(key); ok {
		return b.Contains(v)
	}
	return true
}

// intKey decodes a one-column integer key encoding (types.AppendIntKey).
func intKey(key []byte) (int64, bool) {
	if len(key) != 9 || key[0] != 0x01 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(key[1:])), true
}

// ProbeInts narrows sel to the lanes whose value vec[lane] is present;
// survivors are appended to out (which may be sel[:0]) and out is returned.
func (b *Bitmap) ProbeInts(vec []int64, sel, out []int32) []int32 {
	lo, n, words := uint64(b.lo), b.n, b.words
	for _, l := range sel {
		if i := uint64(vec[l]) - lo; i < n && words[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, l)
		}
	}
	return out
}

// ProbeRun is ProbeInts over every lane of vec: the lanes whose value is
// present are appended to out (which may be an identity selection's [:0]).
// It reads no selection and steps four lanes at a time, testing their bits
// without a branch: the one branch per step is on the OR of the four bits,
// so a run the bitmap rejects almost whole — a selective filter's usual
// case — writes nothing. A step holding a value outside the domain takes
// the lanes one by one.
func (b *Bitmap) ProbeRun(vec []int64, out []int32) []int32 {
	lo, n, words := uint64(b.lo), b.n, b.words
	k := len(out)
	out = slices.Grow(out, len(vec))[:k+len(vec)]
	l := 0
	for ; l+4 <= len(vec); l += 4 {
		q := vec[l : l+4 : l+4]
		i0, i1, i2, i3 := uint64(q[0])-lo, uint64(q[1])-lo, uint64(q[2])-lo, uint64(q[3])-lo
		if max(i0, i1, i2, i3) >= n {
			k = b.probeLanes(q, l, out, k)
			continue
		}
		b0 := b2i(words[i0>>6]&(1<<(i0&63)) != 0)
		b1 := b2i(words[i1>>6]&(1<<(i1&63)) != 0)
		b2 := b2i(words[i2>>6]&(1<<(i2&63)) != 0)
		b3 := b2i(words[i3>>6]&(1<<(i3&63)) != 0)
		if b0|b1|b2|b3 == 0 {
			continue
		}
		for j, bit := range [4]int{b0, b1, b2, b3} {
			out[k] = int32(l + j)
			k += bit
		}
	}
	return out[:b.probeLanes(vec[l:], l, out, k)]
}

// probeLanes is ProbeRun lane by lane, vec[0] being lane first.
func (b *Bitmap) probeLanes(vec []int64, first int, out []int32, k int) int {
	for j, v := range vec {
		out[k] = int32(first + j)
		k += b2i(b.Contains(v))
	}
	return k
}

// b2i is 1 for true; the compiler lowers it to a flag move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// IntersectWith keeps only the values present in both bitmaps, word by
// word; both must cover the same domain.
func (b *Bitmap) IntersectWith(o *Bitmap) error {
	if b.lo != o.lo || b.n != o.n {
		return fmt.Errorf("filter: cannot intersect bitmaps over [%d, +%d) and [%d, +%d)", b.lo, b.n, o.lo, o.n)
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
	return nil
}

// MayContainHash probes by the key bytes; the hash is not needed.
func (b *Bitmap) MayContainHash(_ uint64, key []byte) bool { return b.MayContainKey(key) }

// MayContainHashBatch narrows sel lane by lane through keyAt's bytes; the
// executor (exec.FilterBank.ProbeBatch) reads integers directly and reaches
// this only for a batch holding a value that is not integer-backed, or a
// bitmap over several columns.
func (b *Bitmap) MayContainHashBatch(_ []uint64, sel []int32, out []int32, keyAt func(int32) []byte) []int32 {
	for _, i := range sel {
		if b.MayContainKey(keyAt(i)) {
			out = append(out, i)
		}
	}
	return out
}

// SizeBytes is the bit array's footprint.
func (b *Bitmap) SizeBytes() int { return 8 * len(b.words) }
