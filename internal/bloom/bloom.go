// Package bloom implements the Bloom filters used for AIP sets.
//
// The engine ships one layout, Blocked: a cache-line-blocked, sectorized
// filter (blocked.go), built per producer slot through Partial (partial.go)
// and probed a batch at a time. The paper's implementation used a flat
// filter (§VI, "our Bloom filters use one hash function and are sized for a
// 5% false positive rate"); that single-hash filter survives only in this
// package's tests, as the false-positive oracle Blocked is held against.
// Blocked filters of one geometry and hash seed merge by bitwise
// intersection, which the Feed-Forward algorithm uses to combine AIP sets
// over the same key (§IV-A), or by union.
package bloom

// DefaultFPR is the paper's target false-positive rate.
const DefaultFPR = 0.05

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readU64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
