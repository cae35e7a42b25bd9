// Package bloom implements the Bloom filters used for AIP sets.
//
// The engine ships one layout, Blocked: a cache-line-blocked, sectorized
// filter (blocked.go), built by one goroutine a batch at a time or by
// several partition workers adding concurrently, and probed a batch at a
// time. The paper's implementation used a flat filter (§VI, "our Bloom
// filters use one hash function and are sized for a 5% false positive
// rate"); that single-hash filter survives only in this package's tests, as
// the false-positive oracle Blocked is held against. Blocked filters of one
// geometry and hash seed merge by bitwise intersection, which the
// Feed-Forward algorithm uses to combine AIP sets over the same key (§IV-A).
package bloom

// DefaultFPR is the paper's target false-positive rate.
const DefaultFPR = 0.05
