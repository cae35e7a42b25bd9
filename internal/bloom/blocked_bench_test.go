package bloom

import (
	"testing"
)

// The benchmark population: a half-present/half-absent probe stream over
// 1M keys at the paper's 5% budget, probed through the flat oracle (test
// code, see flat_test.go) and through Blocked's scalar and batch kernels.
const benchN = 1 << 20

func benchHashes() (present, probes []uint64) {
	present = make([]uint64, benchN)
	for i := range present {
		present[i] = splitmix64(uint64(i))
	}
	probes = make([]uint64, benchN)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = present[i/2]
		} else {
			probes[i] = splitmix64(uint64(benchN + i))
		}
	}
	return present, probes
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func BenchmarkFlatProbeScalar(b *testing.B) {
	present, probes := benchHashes()
	f := NewWithBits(BitsFor(benchN, DefaultFPR), 0)
	for _, h := range present {
		f.AddHash(h)
	}
	b.SetBytes(benchN)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, h := range probes {
			if f.ProbeHash(h) {
				hits++
			}
		}
	}
	sinkInt = hits
}

func BenchmarkBlockedProbeScalar(b *testing.B) {
	present, probes := benchHashes()
	f := NewBlocked(benchN, DefaultFPR)
	f.AddHashBatch(present)
	b.SetBytes(benchN)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for _, h := range probes {
			if f.ProbeHash(h) {
				hits++
			}
		}
	}
	sinkInt = hits
}

func BenchmarkBlockedProbeBatch(b *testing.B) {
	present, probes := benchHashes()
	f := NewBlocked(benchN, DefaultFPR)
	f.AddHashBatch(present)
	sel := make([]int32, 4096)
	for i := range sel {
		sel[i] = int32(i)
	}
	out := make([]int32, 0, len(sel))
	b.SetBytes(benchN)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		for start := 0; start < len(probes); start += len(sel) {
			out = f.ProbeHashBatch(probes[start:start+len(sel)], sel, out[:0])
			hits += len(out)
		}
	}
	sinkInt = hits
}

var sinkInt int
