package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bloom"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/filter"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/types"
)

// TestFeedForwardConcurrentProducers: a Feed-forward producer whose four
// partition workers store into one working set at once — a partitioned
// HashAgg (a new group's key) and a Distinct (a new tuple) — publishes
// exactly the summary that inserting the same keys one by one builds: a
// Bloom filter bit for bit, a bitmap word for word, a hash set key for key.
// The rows are a fixed multiset of (k, v) pairs and the class is k's: the
// workers partition on the whole pair, so one k is stored by several
// workers, into the same filter word.
func TestFeedForwardConcurrentProducers(t *testing.T) {
	const (
		rows   = 20_000
		domain = 10_000
		est    = 5_000 // ≥ 4 × 1024: the operators keep all four partitions
	)
	rng := rand.New(rand.NewSource(41))
	data := make([]types.Tuple, rows)
	keys, pairs := map[int64]bool{}, map[[2]int64]bool{}
	for i := range data {
		k, v := rng.Int63n(domain), rng.Int63n(4)
		data[i] = types.Tuple{types.Int(k), types.Int(v)}
		keys[k], pairs[[2]int64{k, v}] = true, true
	}
	sch := intSchema("k", "v")

	producers := []struct {
		name  string
		build func(pt *exec.Point) exec.Op
	}{
		{"agg", func(pt *exec.Point) exec.Op {
			scan := &exec.Scan{Name: "t", Rows: data, Sch: sch}
			h := exec.NewHashAgg("agg", scan,
				[]expr.Expr{&expr.ColRef{Idx: 0, Col: sch.Cols[0]}, &expr.ColRef{Idx: 1, Col: sch.Cols[1]}},
				[]plan.AggSpec{{Func: plan.AggCountStar, Name: "c"}}, intSchema("k", "v", "c"))
			h.Point = pt
			return h
		}},
		{"distinct", func(pt *exec.Point) exec.Op {
			return &exec.Distinct{Name: "distinct", Child: &exec.Scan{Name: "t", Rows: data, Sch: sch}, Point: pt}
		}},
	}
	kinds := []struct {
		name    string
		kind    SummaryKind
		domains bool
	}{{"bloom", SummaryBloom, false}, {"bitmap", SummaryBloom, true}, {"hashset", SummaryHashSet, false}}

	for _, pr := range producers {
		for _, kd := range kinds {
			t.Run(pr.name+"/"+kd.name, func(t *testing.T) {
				pt := &exec.Point{
					Name: pr.name, EqIDs: []int{-1, -1}, StateEqIDs: []int{1, -1}, KeyCols: []int{0, 1},
					Bank: exec.NewFilterBank(), Stateful: true, EstRows: est,
					DomainDistinct: []float64{domain, 4}, Schema: sch,
				}
				if kd.domains {
					pt.StateDomains = []exec.IntDomain{{Lo: 0, Hi: domain - 1, Known: true}, {}}
				}
				// A consumer that never runs keeps the class's interest,
				// so the published summary stays attached to it.
				co := &exec.Point{
					Name: "consumer", EqIDs: []int{1, -1}, Bank: exec.NewFilterBank(),
					DomainDistinct: []float64{domain, 0}, Schema: sch,
				}
				reg := stats.NewRegistry()
				ff := NewFeedForward(Options{Stats: reg, Kind: kd.kind})
				ctx := exec.NewContext(reg, ff)
				ctx.Parallelism = 4
				ctx.Register(pt)
				ctx.Register(co)
				out, err := exec.Run(ctx, pr.build(pt))
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != len(pairs) || pt.Op.Partitions() != 4 {
					t.Fatalf("%d rows over %d partitions, want %d over 4", len(out), pt.Op.Partitions(), len(pairs))
				}
				var got []filter.Summary
				co.Bank.Each(func(_ []int, s filter.Summary) { got = append(got, s) })
				if len(got) != 1 {
					t.Fatalf("the consumer holds %d summaries, want 1", len(got))
				}
				ci := ff.classes[1]
				switch s := got[0].(type) {
				case filter.Blocked:
					if kd.domains || kd.kind != SummaryBloom {
						t.Fatalf("published a Bloom filter, want %s", kd.name)
					}
					want := bloom.NewBlockedWithGeometry(ci.bits, ci.k, 0)
					for k := range keys {
						want.Add(types.Int(k).AppendKey(nil))
					}
					if !reflect.DeepEqual(s.F, want) {
						t.Fatal("the shared Bloom filter differs from one-by-one insertion")
					}
				case *filter.Bitmap:
					if !kd.domains {
						t.Fatalf("published a bitmap, want %s", kd.name)
					}
					want := ci.newBitmap()
					for k := range keys {
						want.Add(k)
					}
					if !reflect.DeepEqual(s, want) {
						t.Fatal("the shared bitmap differs from one-by-one insertion")
					}
				case *filter.HashSet:
					if kd.kind != SummaryHashSet {
						t.Fatalf("published a hash set, want %s", kd.name)
					}
					if s.Len() != len(keys) {
						t.Fatalf("the shared hash set holds %d keys, want %d", s.Len(), len(keys))
					}
					for k := range keys {
						if key := types.Int(k).AppendKey(nil); !s.MayContainHash(types.Hash64(key, 0), key) {
							t.Fatalf("the shared hash set lost key %d", k)
						}
					}
				default:
					t.Fatalf("published a %T", s)
				}
				if reg.FiltersMade.Load() != 1 {
					t.Fatalf("made %d filters, want 1", reg.FiltersMade.Load())
				}
			})
		}
	}
}
