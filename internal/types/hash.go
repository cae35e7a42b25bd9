package types

import (
	"encoding/binary"
	"math/bits"
)

// A key's hash is Hash64 over its canonical AppendKey encoding, computed
// once per use: the executor hashes a key once for its partition, and the
// resulting 64-bit value is reused by the join and aggregation tables
// (internal/exec), the Bloom filter (bloom.AddHash / bloom.ProbeHash), and
// the exact hash-set summary, so no consumer re-encodes or re-hashes the key
// bytes. A key of integer-backed columns hashes from its words
// (HashIntKey, HashIntKeys) to the same value, with no bytes written.
//
// The function is a wyhash-style construction built on 64×64→128-bit
// multiplication folds; it is fast on short keys (the common case: one or
// two fixed-width columns) and well distributed enough to drive
// open-addressing tables and single-hash Bloom filters directly.

const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
	wyp2 = 0x8ebc6af09c88c6e3
	wyp3 = 0x589965cc75374cc3
)

func wymix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// Hash64 hashes b with the given seed. Key hashes throughout the engine use
// seed 0; consumers needing independent bit streams (Bloom filters with
// nonzero seeds) derive them with Mix64 rather than rehashing the bytes.
func Hash64(b []byte, seed uint64) uint64 {
	n := len(b)
	seed ^= wyp0
	var a, c uint64
	switch {
	case n <= 16:
		// Two overlapping fixed-width loads cover every length in the
		// range; the 8-byte case (one or two fixed-width key columns —
		// the engine's hottest shape) pays two loads and nothing else.
		switch {
		case n >= 8:
			a = binary.LittleEndian.Uint64(b)
			c = binary.LittleEndian.Uint64(b[n-8:])
		case n >= 4:
			a = uint64(binary.LittleEndian.Uint32(b))
			c = uint64(binary.LittleEndian.Uint32(b[n-4:]))
		case n > 0:
			a = uint64(b[0])<<16 | uint64(b[n>>1])<<8 | uint64(b[n-1])
		}
	default:
		i := n
		p := b
		if i > 48 {
			s1, s2 := seed, seed
			for ; i > 48; i -= 48 {
				seed = wymix(binary.LittleEndian.Uint64(p)^wyp1, binary.LittleEndian.Uint64(p[8:])^seed)
				s1 = wymix(binary.LittleEndian.Uint64(p[16:])^wyp2, binary.LittleEndian.Uint64(p[24:])^s1)
				s2 = wymix(binary.LittleEndian.Uint64(p[32:])^wyp3, binary.LittleEndian.Uint64(p[40:])^s2)
				p = p[48:]
			}
			seed ^= s1 ^ s2
		}
		for ; i > 16; i -= 16 {
			seed = wymix(binary.LittleEndian.Uint64(p)^wyp1, binary.LittleEndian.Uint64(p[8:])^seed)
			p = p[16:]
		}
		a = binary.LittleEndian.Uint64(b[n-16:])
		c = binary.LittleEndian.Uint64(b[n-8:])
	}
	return wymix(wyp1^uint64(n), wymix(a^wyp1, c^seed))
}

// Mix64 folds two 64-bit values into a well-distributed result. It derives
// per-seed Bloom bit positions from an already-computed key hash without
// touching the key bytes again.
func Mix64(a, b uint64) uint64 {
	return wymix(a^wyp0, b^wyp1)
}

// HashIntKey returns Hash64(Int(v).AppendKey(nil), 0) computed entirely in
// registers: the canonical integer-kind encoding is the 0x01 tag followed
// by the big-endian payload, so the two overlapping 8-byte loads Hash64
// would perform on those 9 bytes are byte-reversals of v. Key kernels use it
// to hash a single-integer key from its value, never from encoded bytes;
// TestHashIntKeyMatchesHash64 pins the equivalence.
func HashIntKey(v int64) uint64 {
	r := bits.ReverseBytes64(uint64(v))
	return wymix(wyp1^9, wymix((r<<8|0x01)^wyp1, r^wyp0))
}

// HashIntKeys is HashIntKey for a key of len(w) integer-backed columns given
// as words: Hash64 of their canonical encoding (AppendIntKeys), built on the
// stack for up to eight columns.
func HashIntKeys(w []int64) uint64 {
	if len(w) == 1 {
		return HashIntKey(w[0])
	}
	var buf [72]byte
	return Hash64(AppendIntKeys(buf[:0], w), 0)
}
