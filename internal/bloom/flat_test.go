package bloom

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// Filter is the flat single-hash Bloom filter of the paper's implementation
// (§VI): m = n/p bits, one bit per key. The engine ships Blocked; Filter is
// the oracle Blocked's false-positive rate is held against.
type Filter struct {
	bits  []uint64
	nbits uint64
	seed  uint64
}

// BitsFor returns the number of bits needed for n expected elements at
// false-positive rate p with a single hash function: the FPR of a one-hash
// filter with n inserts is 1-(1-1/m)^n ≈ n/m, so m = n/p.
func BitsFor(n int, p float64) uint64 {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = DefaultFPR
	}
	m := uint64(math.Ceil(float64(n) / p))
	if m < 64 {
		m = 64
	}
	return m
}

// New creates a filter sized for n expected elements at false-positive
// rate p, using hash seed 0.
func New(n int, p float64) *Filter { return NewWithBits(BitsFor(n, p), 0) }

// NewWithBits creates a filter with an explicit bit length.
func NewWithBits(nbits, seed uint64) *Filter {
	if nbits < 64 {
		nbits = 64
	}
	return &Filter{bits: make([]uint64, (nbits+63)/64), nbits: nbits, seed: seed}
}

// pos remixes a key's Hash64 into the filter's bit position.
func (f *Filter) pos(h uint64) uint64 { return types.Mix64(h, f.seed) % f.nbits }

// AddHash inserts a key by its Hash64 (seed 0).
func (f *Filter) AddHash(h uint64) {
	pos := f.pos(h)
	f.bits[pos>>6] |= 1 << (pos & 63)
}

// Add inserts a key encoding.
func (f *Filter) Add(key []byte) { f.AddHash(types.Hash64(key, 0)) }

// ProbeHash reports whether a key with the given Hash64 may be present.
func (f *Filter) ProbeHash(h uint64) bool {
	pos := f.pos(h)
	return f.bits[pos>>6]&(1<<(pos&63)) != 0
}

// Contains reports whether the key may be present.
func (f *Filter) Contains(key []byte) bool { return f.ProbeHash(types.Hash64(key, 0)) }

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.05)
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.Contains([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRateNear5Percent(t *testing.T) {
	const n = 20000
	f := New(n, 0.05)
	for i := 0; i < n; i++ {
		f.Add([]byte(fmt.Sprintf("in-%d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains([]byte(fmt.Sprintf("out-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// One-hash filter at m = n/p: FPR ≈ 1-e^(-n/m) ≈ 4.9%. Allow slack.
	if rate > 0.08 {
		t.Fatalf("observed FPR %.3f, want ≈0.05", rate)
	}
	if rate < 0.01 {
		t.Fatalf("observed FPR %.3f suspiciously low — sizing wrong?", rate)
	}
}

func TestBitsFor(t *testing.T) {
	if BitsFor(1000, 0.05) != 20000 {
		t.Fatalf("BitsFor(1000, 0.05) = %d, want 20000", BitsFor(1000, 0.05))
	}
	if BitsFor(0, 0.05) < 64 {
		t.Fatal("minimum size must be at least 64 bits")
	}
	if BitsFor(100, 0) != BitsFor(100, DefaultFPR) {
		t.Fatal("invalid p should fall back to the default")
	}
}

func TestQuickNoFalseNegativesProperty(t *testing.T) {
	f := func(keys [][]byte) bool {
		bf := New(len(keys)+1, 0.05)
		for _, k := range keys {
			bf.Add(k)
		}
		for _, k := range keys {
			if !bf.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
