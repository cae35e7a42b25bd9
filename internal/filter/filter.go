// Package filter defines the summary-structure abstraction probed by
// executor operators when an AIP filter has been injected, plus two exact
// implementations: a hash set and a bitmap over a dense integer domain. The
// Bloom implementation lives in internal/bloom; this package keeps the
// executor decoupled from the AIP decision logic in internal/core.
package filter

import (
	"sync"

	"repro/internal/bloom"
	"repro/internal/types"
)

// Summary is a one-sided membership summary of a completed subexpression's
// key values: MayContainHash never returns a false negative, so probing it
// as a semijoin preserves query answers (paper §III-B). Implementations
// must be safe for concurrent probes.
//
// Hashed summaries (Blocked, HashSet) are probed by a key hash the caller
// computed: exec.FilterBank.ProbeBatch hashes each filter's own columns
// (types.Hash64 of the canonical key encoding, which an integer key gets
// from its word in registers) for the lanes the filters before it kept. A
// Bitmap over one column needs no hash: ProbeBatch reads the key's integer —
// from the scan's column vector, or the tuples' values — and tests its bit
// (Bitmap.ProbeInts). Its MayContainHash* methods ignore the hash and serve
// the other shapes through the key bytes (MayContainKey), where a key that
// is not integer-tagged passes: a batch holding a value that is not
// integer-backed, and a bitmap attached over several columns, which passes
// every key.
type Summary interface {
	// MayContainHash reports whether the key may be present. hash must be
	// types.Hash64(key, 0), computed once by the caller.
	MayContainHash(hash uint64, key []byte) bool
	// MayContainHashBatch narrows a selection vector to the lanes whose
	// keys may be present. hashes is lane-indexed (hashes[i] is lane i's
	// key hash); sel lists the live lanes in ascending order; survivors are
	// appended to out — owned by the caller, passed with length 0 — and out
	// is returned. keyAt resolves a lane's canonical key bytes; exact
	// summaries call it per probed lane, probabilistic ones never do. The
	// selection semantics mirror expr kernels: the callee only reads sel
	// and only appends to out.
	MayContainHashBatch(hashes []uint64, sel []int32, out []int32, keyAt func(lane int32) []byte) []int32
	// SizeBytes is the summary's memory footprint (and shipping cost).
	SizeBytes() int
}

// Blocked adapts a cache-line-blocked bloom.Blocked to the Summary
// interface; batch probes go through the filter's two-pass kernel.
type Blocked struct{ F *bloom.Blocked }

// MayContainHash probes by precomputed key hash without touching the bytes.
func (b Blocked) MayContainHash(hash uint64, _ []byte) bool { return b.F.ProbeHash(hash) }

// MayContainHashBatch narrows sel through the blocked batch kernel.
func (b Blocked) MayContainHashBatch(hashes []uint64, sel []int32, out []int32, _ func(int32) []byte) []int32 {
	return b.F.ProbeHashBatch(hashes, sel, out)
}

// SizeBytes returns the bit-array footprint.
func (b Blocked) SizeBytes() int { return b.F.SizeBytes() }

// HashSet is an exact summary backed by a hash set of key encodings. It has
// no false positives but costs more memory and probe time than a Bloom
// filter; the paper found Bloom superior in nearly all cases (§V), and this
// implementation exists for the ablation benchmarks and for the Cost-based
// algorithm's direct reuse of operator hash tables. It is safe for
// concurrent adds and probes: one lock guards the buckets.
type HashSet struct {
	mu       sync.RWMutex
	buckets  []map[string]struct{}
	nbuckets uint64
	size     int
	bytes    int
}

// NewHashSet creates a hash-set summary with the given bucket count
// (rounded up to at least 1).
func NewHashSet(nbuckets int) *HashSet {
	if nbuckets < 1 {
		nbuckets = 1
	}
	h := &HashSet{
		buckets:  make([]map[string]struct{}, nbuckets),
		nbuckets: uint64(nbuckets),
	}
	for i := range h.buckets {
		h.buckets[i] = make(map[string]struct{})
	}
	return h
}

// AddHash inserts a key encoding by its precomputed hash (types.Hash64 of
// key with seed 0).
func (h *HashSet) AddHash(hash uint64, key []byte) {
	b := hash % h.nbuckets
	h.mu.Lock()
	defer h.mu.Unlock()
	s := string(key)
	if _, ok := h.buckets[b][s]; !ok {
		h.buckets[b][s] = struct{}{}
		h.size++
		h.bytes += len(s) + 16
	}
}

// Add inserts a key encoding.
func (h *HashSet) Add(key []byte) { h.AddHash(types.Hash64(key, 0), key) }

// MayContainHashBatch probes lane by lane under one read lock, resolving
// each lane's key bytes through keyAt for the exact comparison.
func (h *HashSet) MayContainHashBatch(hashes []uint64, sel []int32, out []int32, keyAt func(int32) []byte) []int32 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, i := range sel {
		if _, ok := h.buckets[hashes[i]%h.nbuckets][string(keyAt(i))]; ok {
			out = append(out, i)
		}
	}
	return out
}

// MayContainHash reports membership by precomputed hash; bucket selection
// reuses the hash, so only the final exact comparison reads the key bytes.
func (h *HashSet) MayContainHash(hash uint64, key []byte) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	_, ok := h.buckets[hash%h.nbuckets][string(key)]
	return ok
}

// SizeBytes returns the approximate footprint of the retained keys.
func (h *HashSet) SizeBytes() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.bytes
}

// Len returns the number of retained distinct keys.
func (h *HashSet) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.size
}
