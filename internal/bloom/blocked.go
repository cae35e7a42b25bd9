// Cache-line-blocked Bloom filter.
//
// A classic flat filter's k probes touch k random cache lines; at AIP
// probe rates (every tuple entering every filtered operator input) the
// memory stalls dominate the probe cost. Blocked confines each key to one
// 512-bit block — exactly one cache line — so a probe costs one line fetch
// regardless of k:
//
//   - The block is chosen by the HIGH 32 bits of the key's Hash64 via a
//     multiply-shift range reduction, which is monotone in those bits. The
//     executor's radix partitioning uses the same high bits, so one
//     partition's keys land in one contiguous stripe of blocks — Partial
//     exploits this to build per-slot working sets stripe by stripe.
//   - Within the block the layout is SECTORIZED: one remixed 64-bit hash
//     picks a single 64-bit word of the block (3 bits) and k bit positions
//     inside that word (6-bit chunks), so a probe is one load and one mask
//     compare — w & mask == mask — regardless of k. k is capped at 7
//     (3 + 7·6 = 45 hash bits) and no second hash of the key bytes is ever
//     computed.
//
// Confining the k bits to one word costs accuracy twice over a classic
// filter (the key count per block AND per word fluctuates), so the sizing
// helpers inflate the classic m = n·ln(1/p)/ln²2 optimum by a constant
// density relief; see BlockedBitsFor.
//
// Two filters are merge-compatible when they share (nblocks, k, seed);
// geometry helpers round bit budgets up to whole blocks so equal budgets
// always negotiate equal geometry.
package bloom

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// BlockBits is the blocked filter's block size: 512 bits = 64 bytes = one
// cache line on every mainstream CPU.
const BlockBits = 512

const (
	blockWords = BlockBits / 64
	// blockedSalt separates the in-block bit hash from block selection,
	// so the bit pattern inside a block is independent of which block was
	// chosen.
	blockedSalt = 0x9e3779b97f4a7c15
	// MaxBlockedK is the probe count cap: one 64-bit remix yields a 3-bit
	// word selector plus seven independent 6-bit in-word positions.
	MaxBlockedK = 7
	// blockedDensityRelief inflates the classic Bloom sizing to compensate
	// for sectorization: the per-word key count is doubly stochastic
	// (Poisson across blocks, then across the 8 words of a block), and
	// Jensen's inequality makes the average FPR of fluctuating word
	// densities worse than the FPR at the average density. 1.3× extra bits
	// brings the measured rate back under the classic budget with margin.
	blockedDensityRelief = 1.3
	// batchChunk is the internal two-pass window of the batch kernels; it
	// bounds the stack-resident address arrays while staying large enough
	// to give the prefetcher a full batch of independent lines.
	batchChunk = 128
)

// BlockedBitsFor returns the blocked geometry for n expected elements at
// false-positive budget p: the classic multi-hash optimum
// m = n·ln(1/p)/ln²2 bits inflated by blockedDensityRelief, rounded UP to
// a whole number of 512-bit blocks and never less than one block (covering
// n = 0 and tiny n, where naive sizing would underflow to a sub-block
// array). At the paper's 5% budget this is ~8.1 bits per key — well under
// half of the one-hash flat filter's m = n/p — because the blocked filter
// checks k bit positions per probe while still touching a single cache
// line.
func BlockedBitsFor(n int, p float64) uint64 {
	if n < 1 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = DefaultFPR
	}
	m := uint64(math.Ceil(blockedDensityRelief * float64(n) * math.Log(1/p) / (math.Ln2 * math.Ln2)))
	return (m + BlockBits - 1) / BlockBits * BlockBits
}

// BlockedKFor returns the probe count for a filter of nbits total bits
// holding n expected elements: the classic optimum k = ln2 · bits/key at
// the pre-relief density (the relief bits lower the fill ratio, they do
// not buy extra probes), clamped to [1, MaxBlockedK]. n < 1 is treated
// as 1.
func BlockedKFor(n int, nbits uint64) uint32 {
	if n < 1 {
		n = 1
	}
	k := int(math.Round(math.Ln2 * float64(nbits) / (blockedDensityRelief * float64(n))))
	if k < 1 {
		k = 1
	}
	if k > MaxBlockedK {
		k = MaxBlockedK
	}
	return uint32(k)
}

// Blocked is a cache-line-blocked Bloom filter over precomputed key hashes.
// The zero value is not usable; construct with NewBlocked or
// NewBlockedWithGeometry.
type Blocked struct {
	words   []uint64 // nblocks * blockWords
	nblocks uint64
	k       uint32
	seed    uint64
	n       int // inserted element count (approximate under merge)

	// sink keeps the batch kernels' warming loads observable so the
	// compiler cannot delete them.
	sink uint64
}

// NewBlocked creates a blocked filter sized for n expected elements at
// false-positive budget p with hash seed 0.
func NewBlocked(n int, p float64) *Blocked {
	nbits := BlockedBitsFor(n, p)
	return NewBlockedWithGeometry(nbits, BlockedKFor(n, nbits), 0)
}

// NewBlockedWithGeometry creates a blocked filter with an explicit
// geometry. nbits is rounded up to a whole number of blocks (minimum one);
// k is clamped to [1, MaxBlockedK]. Filters built with equal (nbits, k,
// seed) are intersection/union compatible.
func NewBlockedWithGeometry(nbits uint64, k uint32, seed uint64) *Blocked {
	if nbits < BlockBits {
		nbits = BlockBits
	}
	nblocks := (nbits + BlockBits - 1) / BlockBits
	if k < 1 {
		k = 1
	}
	if k > MaxBlockedK {
		k = MaxBlockedK
	}
	return &Blocked{
		words:   make([]uint64, nblocks*blockWords),
		nblocks: nblocks,
		k:       k,
		seed:    seed,
	}
}

// blockBase returns the index of the block's first word for a key hash:
// a multiply-shift range reduction of the high 32 bits, monotone in them.
func (f *Blocked) blockBase(h uint64) uint64 {
	return (((h >> 32) * f.nblocks) >> 32) * blockWords
}

// bitHash returns the remixed hash whose low bits select the in-block
// word and in-word bit positions.
func (f *Blocked) bitHash(h uint64) uint64 {
	return types.Mix64(h, f.seed^blockedSalt)
}

// blockedMask decodes a remixed bit hash into the key's in-block word
// offset (the low 3 bits) and the mask of its k bits within that word
// (6-bit chunks of the remaining hash). Every representation of a key —
// direct insertion, batch insertion, Partial stripes — funnels through
// this one derivation, which is what makes striped merge bit-exact.
func blockedMask(g uint64, k uint32) (word uint64, mask uint64) {
	word = g & (blockWords - 1)
	g >>= 3
	for i := uint32(0); i < k; i++ {
		mask |= 1 << (g & 63)
		g >>= 6
	}
	return word, mask
}

// mask4 is blockedMask's k = 4 bit mask, hand-unrolled. k = 4 is what
// BlockedKFor picks at the paper's 5% budget regardless of n, so the
// kernels special-case it: the generic helper's variable-count loop keeps
// it from inlining, and a per-lane function call costs more than the mask
// arithmetic itself.
func mask4(g uint64) uint64 {
	g >>= 3
	return 1<<(g&63) | 1<<(g>>6&63) | 1<<(g>>12&63) | 1<<(g>>18&63)
}

// AddHash inserts a key by its precomputed hash (types.Hash64 of the
// canonical key encoding with seed 0).
func (f *Blocked) AddHash(h uint64) {
	f.setHash(h)
	f.n++
}

// setHash sets the key's bits without counting an insertion; Partial's
// merge replays through it and accounts insertions separately.
func (f *Blocked) setHash(h uint64) {
	w, mask := blockedMask(f.bitHash(h), f.k)
	f.words[f.blockBase(h)+w] |= mask
}

// Add inserts a key encoding.
func (f *Blocked) Add(key []byte) { f.AddHash(types.Hash64(key, 0)) }

// ProbeHash reports whether a key with the given precomputed hash may be
// present: one word load, one mask compare.
func (f *Blocked) ProbeHash(h uint64) bool {
	g := f.bitHash(h)
	var mask uint64
	if f.k == 4 {
		mask = mask4(g)
	} else {
		_, mask = blockedMask(g, f.k)
	}
	return f.words[f.blockBase(h)+(g&(blockWords-1))]&mask == mask
}

// Contains reports whether the key may be present.
func (f *Blocked) Contains(key []byte) bool { return f.ProbeHash(types.Hash64(key, 0)) }

// AddHashBatch inserts a batch of precomputed hashes. It runs two passes
// per chunk: the first computes every lane's word address and remixed bit
// hash and touches the word (warming the line for the coming
// read-modify-write), the second ORs in the masks — the independent loads
// of pass one overlap in the memory system instead of serializing behind
// each insert.
func (f *Blocked) AddHashBatch(hashes []uint64) {
	var idx [batchChunk]uint64
	var mk [batchChunk]uint64
	for len(hashes) > 0 {
		c := len(hashes)
		if c > batchChunk {
			c = batchChunk
		}
		var warm uint64
		if f.k == 4 {
			for j := 0; j < c; j++ {
				h := hashes[j]
				gg := f.bitHash(h)
				w := f.blockBase(h) + (gg & (blockWords - 1))
				idx[j] = w
				mk[j] = mask4(gg)
				warm ^= f.words[w]
			}
		} else {
			for j := 0; j < c; j++ {
				h := hashes[j]
				gg := f.bitHash(h)
				w := f.blockBase(h) + (gg & (blockWords - 1))
				idx[j] = w
				_, mk[j] = blockedMask(gg, f.k)
				warm ^= f.words[w]
			}
		}
		f.sink ^= warm
		for j := 0; j < c; j++ {
			f.words[idx[j]] |= mk[j]
		}
		f.n += c
		hashes = hashes[c:]
	}
}

// ProbeHashBatch narrows a selection vector to the lanes whose hashes may
// be present. hashes is lane-indexed (hashes[i] belongs to lane i); sel
// lists the live lanes in order. Survivors are appended to out — the
// caller owns out and passes it with length 0 — and out is returned. sel
// and out must not alias unless they are the very same slice narrowed in
// place. It runs two passes per chunk: pass one computes each lane's
// remixed hash and bit mask while loading its single filter word — the
// mask arithmetic fills the ALU slots left idle by the overlapping loads —
// and pass two is a pure compare-and-append over the staged words.
func (f *Blocked) ProbeHashBatch(hashes []uint64, sel []int32, out []int32) []int32 {
	var mk [batchChunk]uint64
	var wv [batchChunk]uint64
	k := f.k
	for start := 0; start < len(sel); start += batchChunk {
		c := len(sel) - start
		if c > batchChunk {
			c = batchChunk
		}
		if k == 4 {
			for j := 0; j < c; j++ {
				h := hashes[sel[start+j]]
				g := f.bitHash(h)
				wv[j] = f.words[f.blockBase(h)+(g&(blockWords-1))]
				mk[j] = mask4(g)
			}
		} else {
			for j := 0; j < c; j++ {
				h := hashes[sel[start+j]]
				w, mask := blockedMask(f.bitHash(h), k)
				wv[j] = f.words[f.blockBase(h)+w]
				mk[j] = mask
			}
		}
		for j := 0; j < c; j++ {
			if m := mk[j]; wv[j]&m == m {
				out = append(out, sel[start+j])
			}
		}
	}
	return out
}

// Len returns the number of insertions performed (after IntersectWith the
// count is the minimum of the operands', an upper bound on the true size).
func (f *Blocked) Len() int { return f.n }

// NumBits returns the filter's total bit length (always whole blocks).
func (f *Blocked) NumBits() uint64 { return f.nblocks * BlockBits }

// K returns the per-key probe count.
func (f *Blocked) K() uint32 { return f.k }

// SizeBytes returns the bit-array footprint (and shipping cost).
func (f *Blocked) SizeBytes() int { return len(f.words) * 8 }

// Compatible reports whether two blocked filters can be merged bitwise:
// same block count, probe count, and seed.
func (f *Blocked) Compatible(other *Blocked) bool {
	return other != nil && f.nblocks == other.nblocks && f.k == other.k && f.seed == other.seed
}

// IntersectWith ANDs other into f, narrowing f to keys present in both.
func (f *Blocked) IntersectWith(other *Blocked) error {
	if !f.Compatible(other) {
		return fmt.Errorf("bloom: cannot intersect incompatible blocked filters (%d/%d blocks, k %d/%d, seeds %d/%d)",
			f.nblocks, other.nblocks, f.k, other.k, f.seed, other.seed)
	}
	for i := range f.words {
		f.words[i] &= other.words[i]
	}
	if other.n < f.n {
		f.n = other.n
	}
	return nil
}

// UnionWith ORs other into f, widening f to keys present in either.
func (f *Blocked) UnionWith(other *Blocked) error {
	if !f.Compatible(other) {
		return fmt.Errorf("bloom: cannot union incompatible blocked filters (%d/%d blocks, k %d/%d, seeds %d/%d)",
			f.nblocks, other.nblocks, f.k, other.k, f.seed, other.seed)
	}
	for i := range f.words {
		f.words[i] |= other.words[i]
	}
	f.n += other.n
	return nil
}

// Clone returns an independent copy of the filter.
func (f *Blocked) Clone() *Blocked {
	words := make([]uint64, len(f.words))
	copy(words, f.words)
	return &Blocked{words: words, nblocks: f.nblocks, k: f.k, seed: f.seed, n: f.n}
}

// FillRatio returns the fraction of set bits.
func (f *Blocked) FillRatio() float64 {
	var set int
	for _, w := range f.words {
		set += popcount(w)
	}
	return float64(set) / float64(f.nblocks*BlockBits)
}

// Marshal serializes the filter for shipping across the simulated network.
func (f *Blocked) Marshal() []byte {
	out := make([]byte, 0, 32+len(f.words)*8)
	out = appendU64(out, f.nblocks)
	out = appendU64(out, uint64(f.k))
	out = appendU64(out, f.seed)
	out = appendU64(out, uint64(f.n))
	for _, w := range f.words {
		out = appendU64(out, w)
	}
	return out
}

// UnmarshalBlocked reconstructs a filter produced by (*Blocked).Marshal.
func UnmarshalBlocked(data []byte) (*Blocked, error) {
	if len(data) < 32 || (len(data)-32)%8 != 0 {
		return nil, fmt.Errorf("bloom: malformed blocked filter payload (%d bytes)", len(data))
	}
	f := &Blocked{
		nblocks: readU64(data[0:]),
		k:       uint32(readU64(data[8:])),
		seed:    readU64(data[16:]),
		n:       int(readU64(data[24:])),
	}
	nwords := (len(data) - 32) / 8
	if f.nblocks == 0 || f.k == 0 || f.k > MaxBlockedK || uint64(nwords) != f.nblocks*blockWords {
		return nil, fmt.Errorf("bloom: blocked payload has %d words for %d blocks (k=%d)", nwords, f.nblocks, f.k)
	}
	f.words = make([]uint64, nwords)
	for i := range f.words {
		f.words[i] = readU64(data[32+i*8:])
	}
	return f, nil
}
