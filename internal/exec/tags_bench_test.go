package exec

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// BenchmarkSourceProbeTags times the probe at the source's lookup of a
// 1024-lane scatter of one-column word keys, nearly all absent, in a table of
// n keys: the batch kernel alone (batch) and behind the table's hash tags
// (tagged), in ns a lane. It sets tagKeys, the largest table that gets tags.
func BenchmarkSourceProbeTags(b *testing.B) {
	for _, n := range []int{16, 64, 128, 256, 512, 1024} {
		var kt types.KeyTable
		for i := range n {
			w := int64(i * 7919)
			kt.InsertWords([]uint64{types.HashIntKey(w)}, []int64{w}, 1, make([]int32, 1), make([]bool, 1))
		}
		sb := &scatter{}
		for i := range 1024 {
			w := int64(1_000_003 + i*31) // never stored
			if i%64 == 0 {
				w = int64(i % n * 7919)
			}
			sb.addRow(int32(i), types.HashIntKey(w), []int64{w})
		}
		tags := kt.HashTags()
		ids := make([]int32, sb.len())
		for _, c := range []struct {
			name string
			tags *[16]uint64
		}{{"batch", nil}, {"tagged", &tags}} {
			b.Run(fmt.Sprintf("keys=%d/%s", n, c.name), func(b *testing.B) {
				for range b.N {
					sb.lookupTagged(&kt, c.tags, ids)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sb.len()), "ns/lane")
			})
		}
	}
}
