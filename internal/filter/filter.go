// Package filter defines the summary-structure abstraction probed by
// executor operators when an AIP filter has been injected, plus a hash-set
// implementation. The Bloom implementation lives in internal/bloom; this
// package keeps the executor decoupled from the AIP decision logic in
// internal/core.
package filter

import (
	"fmt"
	"sync"

	"repro/internal/bloom"
	"repro/internal/types"
)

// Summary is a one-sided membership summary of a completed subexpression's
// key values: MayContainHash never returns a false negative, so probing it
// as a semijoin preserves query answers (paper §III-B). Implementations
// must be safe for concurrent probes.
//
// Probing is hash-once only: the executor computes types.Hash64 of the
// canonical key encoding exactly once per (tuple, column set) and reuses it
// across every summary probed for that key; there is deliberately no
// re-encoding probe entry point.
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
	// Len is the (approximate) number of distinct keys summarized.
	Len() int
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

// Len returns the insertion count.
func (b Blocked) Len() int { return b.F.Len() }

// HashSet is an exact summary backed by a hash set of key encodings. It has
// no false positives but costs more memory and probe time than a Bloom
// filter; the paper found Bloom superior in nearly all cases (§V), and this
// implementation exists for the ablation benchmarks and for the Cost-based
// algorithm's direct reuse of operator hash tables.
//
// Memory overflow is handled per the paper: buckets may be discarded, and a
// probe that lands in a discarded bucket passes (never a false negative).
type HashSet struct {
	mu        sync.RWMutex
	buckets   []map[string]struct{}
	discarded []bool
	nbuckets  uint64
	size      int
	bytes     int
}

// NewHashSet creates a hash-set summary with the given bucket count
// (rounded up to at least 1).
func NewHashSet(nbuckets int) *HashSet {
	if nbuckets < 1 {
		nbuckets = 1
	}
	h := &HashSet{
		buckets:   make([]map[string]struct{}, nbuckets),
		discarded: make([]bool, nbuckets),
		nbuckets:  uint64(nbuckets),
	}
	for i := range h.buckets {
		h.buckets[i] = make(map[string]struct{})
	}
	return h
}

// AddHash inserts a key encoding by its precomputed hash (types.Hash64 of
// key with seed 0). Adding to a discarded bucket is a no-op (the bucket
// already passes everything).
func (h *HashSet) AddHash(hash uint64, key []byte) {
	b := hash % h.nbuckets
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.discarded[b] {
		return
	}
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
		b := hashes[i] % h.nbuckets
		if h.discarded[b] {
			out = append(out, i)
			continue
		}
		if _, ok := h.buckets[b][string(keyAt(i))]; ok {
			out = append(out, i)
		}
	}
	return out
}

// MayContainHash reports membership by precomputed hash; bucket selection
// reuses the hash, so only the final exact comparison reads the key bytes.
func (h *HashSet) MayContainHash(hash uint64, key []byte) bool {
	b := hash % h.nbuckets
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.discarded[b] {
		return true
	}
	_, ok := h.buckets[b][string(key)]
	return ok
}

// MergeFrom unions other's keys into h (bucket-wise, so a discarded bucket
// on either side stays discarded and keeps passing everything). Both sets
// must have the same bucket count — the Feed-Forward controller merges the
// per-partition working sets of one producer, which it sizes identically.
func (h *HashSet) MergeFrom(other *HashSet) error {
	if h.nbuckets != other.nbuckets {
		return fmt.Errorf("filter: cannot merge hash sets with %d and %d buckets", h.nbuckets, other.nbuckets)
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range other.buckets {
		if other.discarded[i] {
			if !h.discarded[i] {
				for k := range h.buckets[i] {
					h.size--
					h.bytes -= len(k) + 16
				}
				h.buckets[i] = nil
				h.discarded[i] = true
			}
			continue
		}
		if h.discarded[i] {
			continue
		}
		for k := range other.buckets[i] {
			if _, ok := h.buckets[i][k]; !ok {
				h.buckets[i][k] = struct{}{}
				h.size++
				h.bytes += len(k) + 16
			}
		}
	}
	return nil
}

// DiscardBucket drops one bucket's contents to relieve memory pressure;
// probes to that bucket subsequently pass unconditionally (§V).
func (h *HashSet) DiscardBucket(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < 0 || i >= len(h.buckets) || h.discarded[i] {
		return
	}
	for k := range h.buckets[i] {
		h.size--
		h.bytes -= len(k) + 16
	}
	h.buckets[i] = nil
	h.discarded[i] = true
}

// DiscardedBuckets returns how many buckets have been dropped.
func (h *HashSet) DiscardedBuckets() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, d := range h.discarded {
		if d {
			n++
		}
	}
	return n
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
