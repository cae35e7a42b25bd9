//go:build race

package exec

// raceEnabled: the race detector makes sync.Pool drop a share of what it is
// handed, so pool-backed zero-allocation assertions cannot hold under it.
const raceEnabled = true
