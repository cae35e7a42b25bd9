package types

import (
	"math"
	"testing"
)

// TestHashIntKeyMatchesHash64 pins the register-path hash to the canonical
// byte-path hash for the integer-kind key encoding, across sign, boundary,
// and byte-pattern cases, and the word hash of a key of k = 1..3 columns
// (HashIntKeys) to Hash64 of the key's AppendKeyCols encoding.
func TestHashIntKeyMatchesHash64(t *testing.T) {
	vals := []int64{0, 1, -1, 42, -42, math.MaxInt64, math.MinInt64,
		0x0102030405060708, -0x0102030405060708, 1 << 32, (1 << 32) - 1}
	for _, v := range vals {
		enc := Int(v).AppendKey(nil)
		if got, want := HashIntKey(v), Hash64(enc, 0); got != want {
			t.Fatalf("HashIntKey(%d) = %#x, Hash64(enc) = %#x", v, got, want)
		}
	}
	for k := 1; k <= 3; k++ {
		for i := range vals {
			w := make([]int64, k)
			tup := make(Tuple, k)
			for c := range w {
				w[c] = vals[(i+c*5)%len(vals)]
				tup[c] = Int(w[c])
			}
			enc := tup.AppendKeyCols(nil, []int{0, 1, 2}[:k])
			if got := AppendIntKeys(nil, w); string(got) != string(enc) {
				t.Fatalf("AppendIntKeys(%d) = %x, AppendKeyCols = %x", w, got, enc)
			}
			if got, want := HashIntKeys(w), Hash64(enc, 0); got != want {
				t.Fatalf("HashIntKeys(%d) = %#x, Hash64(enc) = %#x", w, got, want)
			}
		}
	}
}

// TestAppendIntKeyMatchesAppendKey pins the shared fast append to the
// canonical Value.AppendKey encoding for every integer-backed kind.
func TestAppendIntKeyMatchesAppendKey(t *testing.T) {
	for _, v := range []Value{Int(7), Int(-7), Date(123456), Bool(true), Bool(false)} {
		want := v.AppendKey(nil)
		got := AppendIntKey(nil, v.I)
		if string(got) != string(want) {
			t.Fatalf("AppendIntKey(%v) = %x, AppendKey = %x", v, got, want)
		}
	}
}
