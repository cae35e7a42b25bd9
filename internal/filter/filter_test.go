package filter

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bloom"
	"repro/internal/types"
)

// mayContain probes a summary through the hash-once production entry point
// (the cold-path re-encode probes were removed from the Summary interface).
func mayContain(s Summary, key []byte) bool {
	return s.MayContainHash(types.Hash64(key, 0), key)
}

func TestBloomAdapter(t *testing.T) {
	bf := bloom.NewBlocked(100, 0.05)
	bf.Add([]byte("k"))
	var s Summary = Blocked{F: bf}
	if !mayContain(s, []byte("k")) {
		t.Fatal("adapter lost key")
	}
	if s.SizeBytes() != bf.SizeBytes() {
		t.Fatal("adapter metadata wrong")
	}
	hashes := []uint64{types.Hash64([]byte("k"), 0)}
	if got := s.MayContainHashBatch(hashes, []int32{0}, nil, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("batch probe kept %v, want [0]", got)
	}
}

func TestHashSetExactness(t *testing.T) {
	h := NewHashSet(16)
	for i := 0; i < 1000; i++ {
		h.Add([]byte(fmt.Sprintf("k%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !mayContain(h, []byte(fmt.Sprintf("k%d", i))) {
			t.Fatalf("lost k%d", i)
		}
	}
	// Exact: zero false positives.
	for i := 0; i < 1000; i++ {
		if mayContain(h, []byte(fmt.Sprintf("absent%d", i))) {
			t.Fatalf("false positive for absent%d", i)
		}
	}
	if h.Len() != 1000 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHashSetDuplicates(t *testing.T) {
	h := NewHashSet(4)
	h.Add([]byte("a"))
	h.Add([]byte("a"))
	if h.Len() != 1 {
		t.Fatalf("duplicates must not grow the set: %d", h.Len())
	}
}

func TestHashSetConcurrency(t *testing.T) {
	h := NewHashSet(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("g%d-%d", g, i))
				h.Add(k)
				if !mayContain(h, k) {
					t.Errorf("lost %s", k)
				}
			}
		}(g)
	}
	wg.Wait()
	if h.Len() != 8*500 {
		t.Fatalf("Len = %d, want 4000", h.Len())
	}
}

func TestHashSetMinimumBuckets(t *testing.T) {
	h := NewHashSet(0)
	h.Add([]byte("x"))
	if !mayContain(h, []byte("x")) {
		t.Fatal("degenerate bucket count broken")
	}
}

func TestQuickHashSetNeverFalseNegative(t *testing.T) {
	f := func(keys [][]byte) bool {
		h := NewHashSet(8)
		for _, k := range keys {
			h.Add(k)
		}
		for _, k := range keys {
			if !mayContain(h, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
